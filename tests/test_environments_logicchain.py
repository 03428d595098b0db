import json

import pytest

from flowseek.environments import make_env, replay_trajectory
from flowseek.environments.base import EnvInstance
from flowseek.environments.logicchain import FINISH, generate_instances


def chain_instance(depth=3, distractors=(), entity="Rex", instance_id="lc-test"):
    chain = [f"c{j}" for j in range(depth + 1)]
    gold = [f"Every c{j} is a c{j + 1}." for j in range(depth)]
    facts = sorted(set(gold) | set(distractors))
    goal = {
        "conclusion": f"{entity} is a c{depth}.",
        "facts": facts,
        "gold": gold,
        "chain": chain,
    }
    return EnvInstance(
        "logicchain", instance_id, f"h=|claim={entity} is a c0.",
        json.dumps(goal, sort_keys=True), depth,
    )


def test_action_space_is_facts_plus_finish():
    env = make_env(chain_instance(distractors=["Every c0 is a dx."]))
    actions = env.valid_actions(env.s0)
    assert actions[-1] == FINISH
    assert set(actions[:-1]) == set(env.facts)


def test_gold_path_full_reward():
    env = make_env(chain_instance(depth=3))
    traj = replay_trajectory(env, env.gold_facts)
    assert env.is_success(traj)
    assert traj.reward == pytest.approx(100.0)  # (1/3) * 3 * 100
    assert env.reward(traj) == env.w * 3 / 3  # per-step formula, no terminal bonus


def test_one_off_path_step_dilutes_reward():
    # 3 transitions: two on the gold path, one off -> (1/3) * 2 * 100
    env = make_env(chain_instance(depth=3, distractors=["Every c2 is a dx."]))
    traj = replay_trajectory(env, ["Every c0 is a c1.", "Every c1 is a c2.",
                                   "Every c2 is a dx."])
    assert traj.is_complete  # budget of 3 steps exhausted off the gold path
    assert not env.is_success(traj)
    assert traj.reward == pytest.approx(200.0 / 3.0)


def test_shortcut_gets_zero_reward():
    env = make_env(chain_instance(depth=3))
    traj = replay_trajectory(env, ["Every c2 is a c3."])  # jump straight to c3
    assert traj.is_complete  # claim matches the conclusion, so the state is terminal
    assert not env.is_success(traj)  # but the proof is not gold
    assert traj.reward == pytest.approx(env.reward_floor)


def test_finish_terminates():
    env = make_env(chain_instance(depth=3, distractors=["Every c0 is a dx."]))
    state = env.apply(env.s0, "Every c0 is a dx.")
    state = env.apply(state, FINISH)
    assert env.is_terminal(state)
    traj = replay_trajectory(env, ["Every c0 is a dx.", FINISH])
    assert not env.is_success(traj)


def test_budget_is_chain_length():
    inst = chain_instance(depth=3, distractors=["Every c0 is a dx.", "Every dx is a dy."])
    env = make_env(inst)
    assert inst.max_steps == 3
    traj = replay_trajectory(
        env, ["Every c0 is a dx.", "Every dx is a dy.", "Every c0 is a dx."]
    )
    assert traj.is_complete and not env.is_success(traj)


def test_solution_key_is_fact_sequence():
    env = make_env(chain_instance(depth=3))
    traj = replay_trajectory(env, env.gold_facts)
    assert env.solution_key(traj) == "~".join(env.gold_facts)


def test_generated_instances_gold_replays():
    insts = generate_instances(5, seed=37)
    for inst in insts:
        env = make_env(inst)
        assert not env.is_terminal(env.s0)
        gold = inst.gold_solutions[0].split("~")
        traj = replay_trajectory(env, gold)
        assert env.is_success(traj)
        assert traj.reward == pytest.approx(100.0)
        assert len(gold) == inst.max_steps


def test_generation_deterministic_and_depth_control():
    a = [i.to_record() for i in generate_instances(4, seed=41, difficulty="4")]
    b = [i.to_record() for i in generate_instances(4, seed=41, difficulty="4")]
    assert a == b
    for rec in a:
        assert rec["max_steps"] == 4


def test_reward_floor_below_default_is_honoured():
    # a zero-step trajectory earns nothing, so its total is the floor itself
    low = make_env(chain_instance(), reward_floor=1e-12)
    traj = replay_trajectory(low, [])
    assert low.reward(traj) == 1e-12
    assert make_env(chain_instance()).reward(traj) == 1e-8
