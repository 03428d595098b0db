import numpy as np
import pytest

from flowseek.environments import make_env, replay_trajectory
from flowseek.environments.arc1d import (
    ACTIONS,
    crop_to_content,
    denoise,
    extend_left,
    extend_right,
    fill_enclosed,
    generate_instances,
    hamming,
    mirror,
    recolor_to_majority,
    shift_left_1,
    shift_right_1,
)
from flowseek.environments.base import EnvInstance


def arc_instance(pairs, max_steps=4, instance_id="arc-test"):
    inputs = ";".join("".join(str(c) for c in g) for g, _ in pairs)
    targets = ";".join("".join(str(c) for c in t) for _, t in pairs)
    return EnvInstance(
        "arc1d", instance_id, f"h=|g={inputs}|stop=0", f"g={targets}", max_steps
    )


def test_transform_library_has_ten_functions():
    assert len(ACTIONS) == 10


def test_shift_transforms():
    assert shift_left_1([0, 3, 3, 0]) == [3, 3, 0, 0]
    assert shift_right_1([0, 3, 3, 0]) == [0, 0, 3, 3]
    assert shift_left_1([]) == []


def test_fill_enclosed():
    assert fill_enclosed([0, 2, 0, 0, 2, 0]) == [0, 2, 2, 2, 2, 0]
    assert fill_enclosed([2, 0, 0]) == [2, 0, 0]  # run open to the right
    assert fill_enclosed([0, 0, 0]) == [0, 0, 0]


def test_denoise_keeps_longest_run():
    assert denoise([5, 0, 5, 5, 5, 0, 5]) == [0, 0, 5, 5, 5, 0, 0]
    assert denoise([0, 0, 0]) == [0, 0, 0]
    # leftmost run wins ties
    assert denoise([7, 7, 0, 7, 7]) == [7, 7, 0, 0, 0]


def test_mirror_and_recolor():
    assert mirror([1, 2, 0]) == [0, 2, 1]
    assert recolor_to_majority([1, 2, 2, 0]) == [2, 2, 2, 0]
    assert recolor_to_majority([1, 2, 0]) == [1, 1, 0]  # tie -> smallest color


def test_extend_and_crop():
    assert extend_left([0, 0, 4, 4, 0]) == [0, 4, 4, 4, 0]
    assert extend_right([0, 4, 4, 0, 0]) == [0, 4, 4, 4, 0]
    assert crop_to_content([0, 0, 4, 4, 0]) == [4, 4]
    assert crop_to_content([0, 0]) == [0, 0]


def test_hamming_pads_shorter_grid():
    assert hamming([1, 2, 3], [1, 2, 3]) == 0
    assert hamming([1, 2], [1, 2, 3]) == 1
    assert hamming([], [5]) == 1


def test_terminal_on_match_stop_and_budget():
    pairs = [([0, 3, 0], [0, 0, 3]), ([0, 5, 0], [0, 0, 5]), ([2, 0, 0], [0, 2, 0])]
    env = make_env(arc_instance(pairs))
    assert not env.is_terminal(env.s0)
    solved = env.apply(env.s0, "shift_right_1")
    assert env.is_terminal(solved)
    stopped = env.apply(env.s0, "identity_stop")
    assert env.is_terminal(stopped)
    state = env.s0
    for _ in range(4):  # budget exhaustion on non-solving actions
        if env.is_terminal(state):
            break
        state = env.apply(state, "mirror")
    assert env.is_terminal(state)


def test_success_requires_all_pairs():
    pairs = [([0, 3, 0], [0, 0, 3]), ([0, 5, 0], [5, 0, 0]), ([2, 0, 0], [0, 2, 0])]
    env = make_env(arc_instance(pairs))  # inconsistent rule: shift helps only some pairs
    traj = replay_trajectory(env, ["shift_right_1"])
    assert not env.is_success(traj)


def test_unchanged_step_contributes_k():
    # identity on all K grids adds K * exp(0) = K to the intermediate term
    pairs = [([0, 3, 0], [0, 0, 3]), ([0, 5, 0], [0, 0, 5]), ([2, 0, 0], [0, 2, 0])]
    env = make_env(arc_instance(pairs))
    noop = replay_trajectory(env, ["identity_stop"])
    # no success term: the total is the intermediate term alone
    assert env.reward(noop) == pytest.approx(3.0)


def test_reward_prefers_strict_distance_decrease():
    pairs = [([0, 3, 0], [0, 0, 3]), ([0, 5, 0], [0, 0, 5]), ([0, 2, 0], [0, 0, 2])]
    env = make_env(arc_instance(pairs))
    solving = replay_trajectory(env, ["shift_right_1"])
    assert env.is_success(solving)
    # with success weight 0 the total is the intermediate term alone
    no_bonus = make_env(arc_instance(pairs), success_weight=0.0)
    # each pair had hamming 2 -> 0
    assert no_bonus.reward(solving) == pytest.approx(3 * np.exp(2.0))
    assert env.reward(solving) == 100.0 + no_bonus.reward(solving)
    stopped = replay_trajectory(env, ["identity_stop"])
    assert no_bonus.reward(stopped) < no_bonus.reward(solving)


def test_solution_key_is_function_sequence():
    pairs = [([0, 3, 0], [0, 0, 3]), ([0, 5, 0], [0, 0, 5]), ([2, 0, 0], [0, 2, 0])]
    env = make_env(arc_instance(pairs))
    traj = replay_trajectory(env, ["shift_right_1"])
    assert env.is_success(traj)
    assert env.solution_key(traj) == "shift_right_1"


def test_generated_instances_solvable_by_gold():
    for fam in ("move", "fill", "denoise"):
        insts = generate_instances(3, seed=29, difficulty=fam)
        for inst in insts:
            env = make_env(inst)
            assert not env.is_terminal(env.s0)
            traj = replay_trajectory(env, inst.gold_solutions[0].split(","))
            assert env.is_success(traj)


def test_generation_deterministic():
    a = [i.to_record() for i in generate_instances(4, seed=31)]
    b = [i.to_record() for i in generate_instances(4, seed=31)]
    assert a == b
