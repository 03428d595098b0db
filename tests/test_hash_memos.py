"""Feature rows come from templates kept on process-wide tables, and match a
row built column by column.

game24 keeps each multiset's rows on its decode-table entry, blocksworld each
configuration's on its table entry, and cube2x2 keeps them in a bounded map
keyed by dense index. The rows of a set of envs built after another set has
filled the tables must equal the rows built after the tables are cleared, and
the rows of the test-local featurizers below, which set every column per call.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from flowseek.environments import blocksworld, cube2x2, game24, generate_instances, make_envs

from conftest import reachable_nonterminal


def old_game24_row(env, state, action):
    values = game24.parse_values(state.split("|left=")[1])
    nxt = dict(game24.enumerate_actions(values))[action]
    ranks = {}
    for rank, v in enumerate(values):
        ranks.setdefault(str(v), rank)
    x, op, y, _ = action.split(" ", 3)
    rank_x = ranks[x]
    rank_y = rank_x + 1 if y == x else ranks[y]
    vec = np.zeros(game24.FEATURE_DIM)
    vec["+-*/".index(op)] = 1.0
    vec[4 + min(rank_x, 3) * 4 + min(rank_y, 3)] = 1.0
    for col in game24._successor_columns(nxt):
        vec[col] = 1.0
    return vec


def old_blocksworld_row(env, state, action):
    step, entry = blocksworld._read(state)
    after = entry.next[action]
    relations = env.goal_relations
    sat_before = sum(entry.on.get(b) == s for b, s in relations)
    sat_after = sum(after.on.get(b) == s for b, s in relations)
    delta = (sat_after > sat_before) - (sat_after < sat_before)
    vec = np.zeros(env.feature_dim)
    vec[["pickup", "putdown", "stack", "unstack"].index(action.split()[0])] = 1.0
    vec[4 + min(sat_after, 4)] = 1.0
    vec[10 + delta] = 1.0
    if delta:
        vec[12 if delta > 0 else 13] = 1.0
    if any(action.split()[1] in rel for rel in relations):
        vec[15] = 1.0
    vec[14] = 1.0 if after.hand is None else 0.0
    vec[16] = env.step_fraction(step)
    vec[17] = 1.0
    return vec


def old_cube_row(env, state, action):
    step, p, t = env._ranks_of(state)
    m = cube2x2.MOVES.index(action)
    p, t = cube2x2._PERM_NEXT[m][p], cube2x2._TWIST_NEXT[m][t]
    placed, oriented = cube2x2._PLACED[p], cube2x2._ORIENTED[t]
    vec = np.zeros(env.feature_dim)
    vec[m] = 1.0
    vec[9] = 0.0 if p or t else 1.0
    vec[10 + placed.bit_count()] = 1.0
    vec[19 + oriented.bit_count()] = 1.0
    vec[28 + (placed & oriented).bit_count()] = 1.0
    vec[37] = env.step_fraction(step)
    vec[38] = 1.0
    return vec


def seed3(env_id, difficulty=None):
    instances = generate_instances(env_id, 6, 3, difficulty)
    if env_id == "cube2x2":  # a budget of 3 keeps the DAGs small
        instances = [dataclasses.replace(inst, max_steps=3) for inst in instances]
    return instances


CASES = {
    # name: (instances, the old featurizer)
    "game24": (lambda: seed3("game24"), old_game24_row),
    "blocksworld": (lambda: seed3("blocksworld", "6"), old_blocksworld_row),
    "cube2x2": (lambda: seed3("cube2x2", "2"), old_cube_row),
}


def clear_tables(mp):
    """Point every process-wide table that holds row templates at a fresh, empty one."""
    mp.setattr(game24, "_TABLE", {})
    mp.setattr(blocksworld, "_TABLE", {})
    mp.setattr(cube2x2, "_ROWS", {})


def all_rows(instances):
    """Each instance's rows at every reachable decision point, from a new env set."""
    envs = make_envs(instances)
    return {
        (inst.instance_id, state): envs[inst.instance_id].feature_matrix(state).tobytes()
        for inst in instances
        for state in reachable_nonterminal(envs[inst.instance_id])
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_rows_are_the_same_from_warm_and_cleared_memos_and_the_old_featurizer(name, monkeypatch):
    make_instances, old_row = CASES[name]
    instances = make_instances()
    clear_tables(monkeypatch)
    cold = all_rows(instances)
    warm = all_rows(instances)
    clear_tables(monkeypatch)
    cleared = all_rows(instances)
    envs = make_envs(instances)
    for key, rows in warm.items():
        env, state = envs[key[0]], key[1]
        old = np.stack([old_row(env, state, a) for a in env.valid_actions(state)])
        assert rows == cold[key] == cleared[key] == old.tobytes(), key
    assert len(warm) == len(cold) == len(cleared) > 50


def test_the_cube_map_stays_in_its_bound_and_rows_survive_an_eviction(monkeypatch):
    instances = seed3("cube2x2", "2")
    clear_tables(monkeypatch)
    expect = all_rows(instances)
    filled = len(cube2x2._ROWS)
    assert filled > 10
    clear_tables(monkeypatch)
    monkeypatch.setattr(cube2x2, "CODE_ENTRIES", 10)
    for _ in range(2):  # the second pass meets the entries the first evicted
        envs = make_envs(instances)
        for inst in instances:
            env = envs[inst.instance_id]
            for state in reachable_nonterminal(env):
                assert env.feature_matrix(state).tobytes() == expect[inst.instance_id, state]
                assert len(cube2x2._ROWS) <= 10


def test_game24_potential_matches_the_old_formula_on_every_reachable_multiset():
    instances = seed3("game24")
    envs = make_envs(instances, scorer="progress")
    seen = set()
    for inst in instances:
        env = envs[inst.instance_id]
        for state in env.dag(10**6).states:
            values = [Fraction(tok) for tok in state.split("|left=")[1].split()]
            seen.add(tuple(sorted(values)))
            closest = min(abs(float(v - 24)) for v in values)
            assert env.potential(state) == -closest - len(values), state
    assert len(seen) > 1_000
