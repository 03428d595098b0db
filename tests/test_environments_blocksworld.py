import dataclasses
import hashlib
import itertools
import math

import pytest

from flowseek.environments import blocksworld, make_env, replay_trajectory
from flowseek.environments.base import EnvInstance
from flowseek.environments.blocksworld import (
    COLORS,
    BlocksWorldEnv,
    _encode,
    _encode_goal,
    _move,
    check_physics,
    generate_instances,
)
from flowseek.errors import InvalidActionError, StructuralError, TerminalQueryError
from flowseek.flow_core import Trajectory
from flowseek.rngutil import substream

from conftest import assert_answers_like_fresh_envs, walk_then_warm


def decode(state):
    """(step, hand, supports) of a blocksworld state key, parsed without the env."""
    t_part, hand_part, on_part = state.split("|")
    hand = hand_part.removeprefix("hand=")
    body = on_part.removeprefix("on=")
    on = dict(item.split(":") for item in body.split(",")) if body else {}
    return int(t_part[2:]), (None if hand == "-" else hand), on


def bw_instance(on, goal_relations, max_steps=6, hand=None):
    return EnvInstance(
        "blocksworld", "bw-test", _encode(0, hand, on), _encode_goal(goal_relations), max_steps
    )


@pytest.fixture
def three_on_table():
    on = {"blue": "table", "orange": "table", "red": "table"}
    return make_env(bw_instance(on, [("red", "blue")]))


def test_pickup_preconditions(three_on_table):
    env = three_on_table
    actions = env.valid_actions(env.s0)
    assert set(actions) == {"pickup blue", "pickup orange", "pickup red"}
    held = env.apply(env.s0, "pickup red")
    _, hand, on = decode(held)
    assert hand == "red" and "red" not in on
    # only putdown/stack while holding
    next_actions = env.valid_actions(held)
    assert next_actions == ["putdown red", "stack red blue", "stack red orange"]


def test_stacked_block_not_pickable():
    on = {"blue": "table", "orange": "red", "red": "blue"}
    env = make_env(bw_instance(on, [("orange", "blue")]))
    actions = env.valid_actions(env.s0)
    # only the clear top block can move, and only by unstacking
    assert actions == ["unstack orange red"]


def test_apply_invalid_action(three_on_table):
    with pytest.raises(InvalidActionError):
        three_on_table.apply(three_on_table.s0, "stack red blue")  # hand empty
    # still rejected once the state's valid actions are cached
    three_on_table.cached_valid_actions(three_on_table.s0)
    with pytest.raises(InvalidActionError):
        three_on_table.apply(three_on_table.s0, "stack red blue")


def test_apply_at_terminal_state_raises(three_on_table):
    env = three_on_table
    solved = env.apply(env.apply(env.s0, "pickup red"), "stack red blue")
    assert env.is_terminal(solved)
    for _ in range(2):  # the raise is not cached away
        with pytest.raises(TerminalQueryError):
            env.apply(solved, "unstack red blue")


def test_physics_invariants_after_random_walks():
    rng = substream(5, "bw-walk")
    insts = generate_instances(3, seed=9, difficulty="4")
    for inst in insts:
        env = make_env(inst)
        state = env.s0
        check_physics(state)
        while not env.is_terminal(state):
            options = env.valid_actions(state)
            state = env.apply(state, options[int(rng.integers(len(options)))])
            check_physics(state)


def test_goal_may_name_the_held_block():
    env = make_env(EnvInstance("blocksworld", "held", "t=0|hand=red|on=blue:table",
                               "on=red:blue", 2))
    assert env.valid_actions(env.s0) == ["putdown red", "stack red blue"]


def test_physics_checker_catches_violations():
    with pytest.raises(StructuralError):
        check_physics("t=0|hand=red|on=blue:red,red:table")  # resting on a held block
    with pytest.raises(StructuralError):
        check_physics("t=0|hand=-|on=a:b,b:a")  # support cycle


def enumerate_all_configs(blocks):
    """Every physically valid (hand, on) arrangement of `blocks`."""
    configs = []
    for held in [None, *blocks]:
        placed = [b for b in blocks if b != held]
        for arrangement in all_stackings(placed):
            configs.append((held, arrangement))
    return configs


def all_stackings(blocks):
    if not blocks:
        return [{}]
    out = []
    # assign each block a support: table or another block, keeping in-degree <= 1
    for supports in itertools.product(["table", *blocks], repeat=len(blocks)):
        on = {}
        ok = True
        used = set()
        for block, support in zip(blocks, supports):
            if support == block:
                ok = False
                break
            if support != "table":
                if support in used:
                    ok = False
                    break
                used.add(support)
            on[block] = support
        if not ok:
            continue
        try:
            check_physics(_encode(0, None, on))
        except StructuralError:
            continue
        out.append(on)
    return out


def test_parent_count_matches_brute_force_enumeration():
    """Oracle: count configs that can reach the state with one legal action."""
    blocks = ["blue", "orange", "red"]
    goal = [("red", "blue")]
    env = make_env(bw_instance({b: "table" for b in blocks}, goal))

    def goal_met(on):
        return all(on.get(b) == s for b, s in goal)

    rng = substream(6, "bw-par")
    states = []
    state = env.s0
    while not env.is_terminal(state):
        options = env.valid_actions(state)
        state = env.apply(state, options[int(rng.integers(len(options)))])
        states.append(state)

    for state in states:
        step, hand, on = decode(state)
        brute = 0
        for p_hand, p_on in enumerate_all_configs(blocks):
            if goal_met(p_on):  # terminal configs have no outgoing edges
                continue
            probe = bw_instance(p_on, goal, hand=p_hand)
            # a start must be at step 0; below the budget of 99 the step changes nothing
            probe = EnvInstance(
                "blocksworld", "probe", _encode(0, p_hand, p_on),
                _encode_goal(goal), 99,
            )
            penv = BlocksWorldEnv(probe)
            if penv.is_terminal(penv.s0):
                continue
            for action in penv.valid_actions(penv.s0):
                child = penv.apply(penv.s0, action)
                _, c_hand, c_on = decode(child)
                if c_hand == hand and c_on == on:
                    brute += 1
                    break
        assert env.parent_count(state) == brute


def test_parent_count_after_pickup_from_three_on_table():
    on = {"blue": "table", "orange": "table", "red": "table"}
    env = make_env(bw_instance(on, [("orange", "red")]))
    state = env.apply(env.s0, "pickup red")
    # inverse actions: putdown red (from table) or unstack red from blue/orange
    assert env.parent_count(state) == 3
    # a goal-satisfying predecessor is terminal and therefore not a parent
    env2 = make_env(bw_instance(on, [("red", "blue")]))
    state2 = env2.apply(env2.s0, "pickup red")
    assert env2.parent_count(state2) == 2


def test_reward_formula_blocksworld():
    on = {"blue": "table", "orange": "table", "red": "table"}
    env = make_env(bw_instance(on, [("red", "blue")], max_steps=2))
    traj = replay_trajectory(env, ["pickup red", "stack red blue"])
    assert env.is_success(traj)
    assert env.success_term(traj.states[-1]) == 100.0
    # lambda * sum(-1/log p) with the uniform scorer
    expected = 0.0
    state = env.s0
    for action in traj.actions:
        p = 1.0 / len(env.valid_actions(state))
        expected += -1.0 / math.log(p)
        state = env.apply(state, action)
    # with success weight 0 the total is the intermediate term alone
    no_bonus = make_env(bw_instance(on, [("red", "blue")], max_steps=2), success_weight=0.0)
    assert no_bonus.reward(traj) == pytest.approx(1.5 * expected, rel=1e-12)


def test_failure_trajectory_keeps_intermediate_term():
    on = {"blue": "table", "orange": "table", "red": "table"}
    env = make_env(bw_instance(on, [("red", "blue")], max_steps=2))
    traj = replay_trajectory(env, ["pickup orange", "stack orange blue"])
    assert not env.is_success(traj)
    assert env.success_term(traj.states[-1]) == 0.0
    assert env.reward(traj) > env.reward_floor


def test_distinct_plans_distinct_keys():
    on = {"blue": "orange", "orange": "red", "red": "table"}
    env = make_env(bw_instance(on, [("red", "blue")], max_steps=6))
    plan_a = [
        "unstack blue orange", "putdown blue", "unstack orange red",
        "putdown orange", "pickup red", "stack red blue",
    ]
    plan_b = [
        "unstack blue orange", "putdown blue", "unstack orange red",
        "stack orange blue", "pickup red", "stack red blue",
    ]
    # plan_b stacks red on blue only if blue is clear: orange sits on blue, invalid
    ta = replay_trajectory(env, plan_a)
    assert env.is_success(ta)
    with pytest.raises(InvalidActionError):
        replay_trajectory(env, plan_b)
    plan_c = [
        "unstack blue orange", "putdown blue", "unstack orange red",
        "putdown orange", "pickup red", "stack red orange",
    ]
    # different successful endings give different keys (here same goal via different plan)
    env2 = make_env(bw_instance(on, [("red", "orange")], max_steps=6))
    tc = replay_trajectory(env2, plan_c)
    assert env2.is_success(tc)
    assert env.solution_key(ta) != env2.solution_key(tc)
    assert env.solution_key(ta) == "|".join(plan_a)


def test_generated_instances_solvable_and_deterministic():
    for diff in ("2", "4", "6"):
        a = generate_instances(3, seed=17, difficulty=diff)
        b = generate_instances(3, seed=17, difficulty=diff)
        assert [i.to_record() for i in a] == [i.to_record() for i in b]
        for inst in a:
            env = make_env(inst)
            assert not env.is_terminal(env.s0)
            assert inst.max_steps == int(diff)
            gold = inst.gold_solutions[0].split("|")
            traj = replay_trajectory(env, gold)
            assert env.is_success(traj)
            assert len(gold) <= int(diff)


def update_dag_digest(digest, env):
    """Feed `digest` every reachable state's children, parent count and feature
    rows, then the reward of each complete trajectory."""
    order, seen = [env.s0], {env.s0}
    for state in order:  # breadth first; `order` grows as it is walked
        if state != env.s0:
            digest.update(env.cached_parent_count(state).to_bytes(1, "little"))
        kids = env.children(state) or ()
        for (action, child), row in zip(kids, env.feature_matrix(state) if kids else ()):
            digest.update(f"{state}>{action}>{child};".encode())
            digest.update(row.astype("<f8").tobytes())
            if child not in seen:
                seen.add(child)
                order.append(child)
    stack = [([], [env.s0])]
    while stack:
        actions, states = stack.pop()
        kids = env.children(states[-1])
        if kids is None:
            traj = Trajectory("pin", states, actions)
            digest.update(env.reward(traj).hex().encode())
            continue
        for action, child in kids:
            stack.append((actions + [action], states + [child]))


def test_env_outputs_match_pinned_digest():
    # digest over every reachable state of a 4-step and a 6-step instance under
    # both scorers, as the env that decoded each key into dicts produced them:
    # children, parent counts, feature rows and the reward of each complete
    # trajectory; the configuration table must not move a bit
    four = generate_instances(1, seed=22, difficulty="4")[0]
    six = generate_instances(1, seed=22, difficulty="6")[0]
    # an instance file may list the start's blocks in any order
    t_part, hand_part, on_part = six.s0.split("|")
    items = on_part.removeprefix("on=").split(",")
    six = dataclasses.replace(six, s0=f"{t_part}|{hand_part}|on={','.join(reversed(items))}")
    assert six.s0 != _encode(*decode(six.s0))
    digest = hashlib.sha256()
    for inst in (four, six):
        for scorer in ("uniform", "progress"):
            update_dag_digest(digest, make_env(inst, scorer=scorer))
    assert digest.hexdigest() == "6ae2653bb784531fa7556bf2e8641b95d2976727197e62ddb80f7aee3300482c"


# -- the process-wide configuration table ---------------------------------------


def old_valid_actions(hand, on):
    """The actions the env listed before the table, in their order."""
    clear = sorted(b for b in on if b not in set(on.values()))
    if hand is None:
        return [f"pickup {x}" if on[x] == "table" else f"unstack {x} {on[x]}" for x in clear]
    return [f"putdown {hand}"] + [f"stack {hand} {y}" for y in clear]


def old_parents(hand, on):
    """The (hand, supports) the four inverse actions reach, as the env built them."""
    clear = [b for b in on if b not in set(on.values())]
    if hand is None:  # put down or stacked some clear block x
        return [(x, {b: s for b, s in on.items() if b != x}) for x in clear]
    return [(None, {**on, hand: s}) for s in ["table", *clear]]


def old_parent_count(hand, on, relations):
    """The inverse-move parent count: parents that do not meet the goal; None if none."""
    count = sum(1 for _, p_on in old_parents(hand, on)
                if not all(p_on.get(b) == s for b, s in relations))
    return count or None


def random_configuration(blocks, rng):
    """A random stacking of `blocks`, one of them held half the time."""
    hand = blocks[int(rng.integers(len(blocks)))] if rng.random() < 0.5 else None
    placed = [b for b in blocks if b != hand]
    order = [placed[i] for i in rng.permutation(len(placed))]
    on, tops = {}, []
    for block in order:
        if tops and rng.random() < 0.5:
            on[block] = tops.pop(int(rng.integers(len(tops))))
        else:
            on[block] = "table"
        tops.append(block)
    return hand, on


@pytest.fixture
def fresh_table(monkeypatch):
    monkeypatch.setattr(blocksworld, "_TABLE", {})


def config_text(hand, on):
    return _encode(0, hand, on).split("|", 1)[1]


def test_table_moves_and_parents_match_move_and_inverse_actions(fresh_table):
    rng = substream(4, "bw-table")
    for _ in range(300):
        blocks = COLORS[: int(rng.integers(3, 6))]
        hand, on = random_configuration(blocks, rng)
        check_physics(_encode(0, hand, on))
        entry = blocksworld._entry(config_text(hand, on))
        assert (entry.hand, entry.on) == (hand, on)
        assert entry.actions == old_valid_actions(hand, on)
        assert list(entry.next) == entry.actions
        for action, after in entry.next.items():
            assert after.text == config_text(*_move(hand, on, action))
            assert entry in after.parents
        assert sorted(p.text for p in entry.parents) == sorted(
            config_text(*p) for p in old_parents(hand, on))
        for parent in entry.parents:
            assert entry in parent.next.values()
        # parent counts under random goals of one or two relations over these blocks
        start = EnvInstance("blocksworld", "pc", _encode(0, None, {b: "table" for b in blocks}),
                            "", 6)
        for _ in range(4):
            relations = [(blocks[i], blocks[j]) for i, j in
                         (rng.choice(len(blocks), 2, replace=False)
                          for _ in range(1 + int(rng.integers(2))))]
            env = make_env(dataclasses.replace(start, goal=_encode_goal(relations)))
            expected = old_parent_count(hand, on, env.goal_relations)
            state = _encode(3, hand, on)
            if expected is None:
                with pytest.raises(StructuralError):
                    env.parent_count(state)
            else:
                assert env.parent_count(state) == expected


def test_envs_with_different_goals_agree_whichever_fills_the_table(monkeypatch):
    inst = generate_instances(1, seed=22, difficulty="4")[0]
    other = dataclasses.replace(inst, goal="on=blue:red,cyan:orange")
    digests = []
    for first, second in ((inst, other), (other, inst), (inst, other)):
        monkeypatch.setattr(blocksworld, "_TABLE", {})
        pair = []
        for instance in (first, second):
            digest = hashlib.sha256()
            update_dag_digest(digest, make_env(instance, scorer="progress"))
            pair.append(digest.hexdigest())
        digests.append(tuple(pair) if first is inst else tuple(reversed(pair)))
    assert digests[0] == digests[1] == digests[2]
    assert digests[0][0] != digests[0][1]


@pytest.mark.parametrize("start", ["sorted", "unsorted"])
def test_state_memo_answers_like_a_fresh_decode(start):
    inst = generate_instances(1, seed=7, difficulty="4")[0]
    if start == "unsorted":  # a start key from a file may list its blocks in any order
        head, body = inst.s0.split("|on=")
        inst = dataclasses.replace(inst, s0=f"{head}|on={','.join(reversed(body.split(',')))}")
        assert list(decode(inst.s0)[2]) != sorted(decode(inst.s0)[2])
    env = make_env(inst, scorer="progress")
    dag = walk_then_warm(env)
    assert_answers_like_fresh_envs(env, dag.states, scorer="progress")
    for state in dag.states:
        assert env.potential(state) == make_env(inst, scorer="progress").potential(state)
    assert len(env._states) >= len(dag.states)
    for state, decoded in env._states.items():
        assert decoded == blocksworld._read(state), state
