"""Feature rows from the shared row stores match `featurize` byte for byte.

game24, cube2x2 and blocksworld keep each decision point's rows once for all
the envs built together, without the step and goal columns, which every call
writes again. Each case fills a store with one instance and then reads the
next, which has another goal or budget, from it, in both orders, with fresh
process-wide decode tables each time. Every reachable non-terminal state's
`feature_matrix` must equal its stacked `featurize` rows, computed beforehand
by an env of its own.
"""

import dataclasses

import numpy as np
import pytest

from flowseek.environments import (
    base,
    blocksworld,
    cube2x2,
    game24,
    generate_instances,
    make_env,
    make_envs,
)
from flowseek.environments.cube2x2 import scramble_instance
from flowseek.environments.game24 import make_instance
from flowseek.trainer import TrainConfig, build_envs

from conftest import reachable_nonterminal


def clear_tables(mp):
    """Point game24's and blocksworld's process-wide decode tables, and cube2x2's
    hash-slot map, at fresh, empty ones."""
    mp.setattr(game24, "_TABLE", {})
    mp.setattr(blocksworld, "_TABLE", {})
    mp.setattr(cube2x2, "_CODES", {})


def blocksworld_instances():
    four = generate_instances("blocksworld", 2, 22, "4")  # one start, two goals
    six = generate_instances("blocksworld", 2, 22, "6")
    longer = dataclasses.replace(four[0], instance_id=f"{four[0].instance_id}-6", max_steps=6)
    return [four[0], four[1], longer, *six]


CASES = {
    # name: (instances, the store key a state reads)
    "game24": (
        [make_instance(h, f"g{i}")
         for i, h in enumerate(([1, 2, 3, 4], [1, 2, 3, 5], [4, 4, 6, 8]))],
        lambda env, s: env.decision_key(s),
    ),
    "cube2x2": (
        [scramble_instance(["R", "U'", "F2"], "c3", max_steps=3),
         scramble_instance(["R", "U'", "F2"], "c5", max_steps=5),
         scramble_instance(["F", "R2", "U'", "R"], "d5", max_steps=5)],
        lambda env, s: env._ranks_of(s)[1:],
    ),
    "blocksworld": (blocksworld_instances(), lambda env, s: s.split("|", 1)[1]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stored_rows_match_featurize_whichever_instance_fills_the_store(name, monkeypatch):
    instances, store_key = CASES[name]
    refs = {}
    for inst in instances:
        clear_tables(monkeypatch)
        env = make_env(inst)
        refs[inst.instance_id, inst.max_steps] = {
            state: np.stack([env.featurize(state, a) for a in env.valid_actions(state)])
            for state in reachable_nonterminal(env)
        }
    for order in (instances, instances[::-1]):
        clear_tables(monkeypatch)
        envs = make_envs(order)
        filled = set()
        shared = 0
        for inst in order:
            env = envs[inst.instance_id]
            keys = set()
            for state, ref in refs[inst.instance_id, inst.max_steps].items():
                mat = env.feature_matrix(state)
                assert mat.dtype == np.float64
                assert mat.tobytes() == ref.tobytes(), (inst.instance_id, state)
                keys.add(store_key(env, state))
            shared += len(keys & filled)
            filled |= keys
        assert shared, "no instance read rows that another one had stored"


@pytest.mark.parametrize("env_id", ["arc1d", "logicchain", "toydag"])
def test_per_env_rows_match_featurize(env_id):
    # these envs keep whole rows, step fractions included, in a store of their own
    inst = dataclasses.replace(generate_instances(env_id, 1, 7)[0], max_steps=3)
    env = make_env(inst)
    states = reachable_nonterminal(env)
    for state in states + states:  # built, then read back
        ref = np.stack([make_env(inst).featurize(state, a) for a in env.valid_actions(state)])
        assert env.feature_matrix(state).tobytes() == ref.tobytes(), state
    assert len(env._rows) == len({env.decision_key(s) for s in states})


def test_goal_and_step_columns_stay_off_the_shared_stores():
    env = make_env(blocksworld_instances()[0])
    for state in reachable_nonterminal(env):
        env.feature_matrix(state)
    assert env._rows
    for rows in env._rows.values():
        assert not rows[:, env._CALL_COLUMNS].any()
    cube = make_env(CASES["cube2x2"][0][1])
    for state in reachable_nonterminal(cube)[:50]:
        cube.feature_matrix(state)
    assert cube._rows
    assert not any(rows[:, cube2x2._STEP_COLUMN].any() for rows in cube._rows.values())


def test_envs_built_together_share_one_store_and_no_other():
    game = [make_instance([4, 4, 6, 8], "a"), make_instance([1, 2, 3, 4], "b")]
    arc = generate_instances("arc1d", 2, 7)
    envs = make_envs([*game, *arc])
    assert envs["a"]._rows is envs["b"]._rows
    assert envs["a"]._rows.envs == 2  # so it keeps twice one env's templates
    # arc1d rows read the instance, so each env keeps its own
    assert envs[arc[0].instance_id]._rows is not envs[arc[1].instance_id]._rows
    again = make_envs(game)
    assert again["a"]._rows is not envs["a"]._rows
    # a shared store keeps small-integer rows as int8, a store of one env float64
    single = make_env(game[0])
    key = single.decision_key(single.s0)
    shared_rows, own_rows = envs["a"].feature_matrix(single.s0), single.feature_matrix(single.s0)
    assert shared_rows.tobytes() == own_rows.tobytes()
    assert envs["a"]._rows[key].dtype == np.int8 and single._rows[key].dtype == np.float64
    with pytest.raises(ValueError, match="cannot share"):
        make_env(arc[0], row_store=base.RowStore(2))


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_build_does_the_same_featurize_work(name, monkeypatch):
    # a store dies with its envs, so a second set of envs built from the same
    # instances calls `featurize` exactly as often as the first did
    instances = CASES[name][0]
    cls = type(make_env(instances[0]))
    calls = []
    featurize = cls.featurize

    def counting_featurize(self, state, action):
        calls.append(state)
        return featurize(self, state, action)

    monkeypatch.setattr(cls, "featurize", counting_featurize)
    counts = []
    for _ in range(2):
        calls.clear()
        envs = build_envs(TrainConfig(env_id=instances[0].env_id), instances)
        for inst in instances:
            for state in reachable_nonterminal(envs[inst.instance_id]):
                envs[inst.instance_id].feature_matrix(state)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_feature_matrix_is_a_fresh_array():
    env = make_env(make_instance([4, 4, 6, 8], "fresh"))
    first = env.feature_matrix(env.s0)
    expect = first.copy()
    first[:] = -1.0  # a caller may change its matrix
    assert env.feature_matrix(env.s0).tobytes() == expect.tobytes()


def test_row_store_evicts_the_oldest_template(monkeypatch):
    monkeypatch.setattr(base, "FEATURE_CACHE_STATES", 5)
    env = make_env(CASES["cube2x2"][0][1])
    states = reachable_nonterminal(env)[:12]
    for state in states:
        env.feature_matrix(state)
    expect = {}  # first in, first out; a configuration met again is read, not stored again
    for _, p, t in map(env._ranks_of, states):
        if 729 * p + t not in expect:
            if len(expect) == 5:
                del expect[next(iter(expect))]
            expect[729 * p + t] = None
    assert len(set(map(env._ranks_of, states))) > 5
    assert list(env._rows) == list(expect)
