"""The game24 solver and action enumerator against the per-path originals.

`solve_game24` keeps the solution suffixes of each three-number multiset in a
bounded memo, and `enumerate_actions` computes each result once and finds
distinct pairs by position. The references below are the earlier
implementations: a recursion over every path and pair lists with equality
scans; the result-set pair count comes from `test_game24_reference`. The
hand grid holds 0, 24 and repeated values, and every multiset it reaches is
compared.
"""

import hashlib
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from flowseek.environments import generate_instances, write_instances
from flowseek.environments.game24 import (
    _pairs_reaching_target,
    _solutions_from_three,
    enumerate_actions,
    solve_game24,
)
from flowseek.oracle import write_offline_game24

from test_game24_reference import ref_pairs_reaching_target

TARGET = Fraction(24)
GRID = combinations_with_replacement((0, 1, 3, 4, 6, 13, 24), 4)
HANDS = [tuple(Fraction(v) for v in hand) for hand in GRID]


def ref_enumerate_actions(values):
    values = tuple(sorted(values))
    seen = {}
    pairs = []
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            pair = (values[i], values[j])
            if pair not in pairs:
                pairs.append(pair)
    for a, b in pairs:
        rest = list(values)
        rest.remove(a)
        rest.remove(b)
        candidates = [
            (f"{a} + {b} = {a + b}", a + b),
            (f"{a} * {b} = {a * b}", a * b),
            (f"{a} - {b} = {a - b}", a - b),
            (f"{b} - {a} = {b - a}", b - a),
        ]
        if b != 0:
            candidates.append((f"{a} / {b} = {a / b}", a / b))
        if a != 0:
            candidates.append((f"{b} / {a} = {b / a}", b / a))
        for eq, result in candidates:
            if eq not in seen:
                seen[eq] = tuple(sorted(rest + [result]))
    return list(seen.items())


@pytest.fixture(scope="module")
def actions():
    """Every multiset of two or more numbers reached from the hands, with its reference actions."""
    actions = {}
    stack = list(HANDS)
    while stack:
        values = stack.pop()
        if len(values) < 2 or values in actions:
            continue
        actions[values] = ref_enumerate_actions(values)
        stack.extend(nxt for _, nxt in actions[values])
    return actions


def ref_solve(values, actions):
    solutions = set()

    def recurse(vals, path):
        if len(vals) == 1:
            if vals[0] == TARGET:
                solutions.add(";".join(path))
            return
        for eq, nxt in actions[vals]:
            path.append(eq)
            recurse(nxt, path)
            path.pop()

    recurse(tuple(sorted(values)), [])
    return solutions


def test_enumerator_and_pair_count_match_the_originals_on_every_reached_multiset(actions):
    assert len(actions) > 10000
    for values, ref in actions.items():
        # the uncached function, so a warm cache cannot hide a difference
        assert enumerate_actions.__wrapped__(values) == ref, values
        assert _pairs_reaching_target.__wrapped__(values) == ref_pairs_reaching_target(values), values


def test_solver_matches_the_per_path_search_on_every_hand(actions):
    solvable = 0
    for hand in HANDS:
        keys = solve_game24(hand)
        assert keys == ref_solve(hand, actions), hand
        solvable += bool(keys)
    assert 0 < solvable < len(HANDS)


def test_solutions_do_not_depend_on_the_memo_or_the_hand_order():
    _solutions_from_three.cache_clear()
    cold = [solve_game24(hand) for hand in HANDS]
    assert _solutions_from_three.cache_info().currsize > 0
    assert _solutions_from_three.cache_info().maxsize is not None  # bounded
    assert [solve_game24(hand) for hand in HANDS] == cold
    _solutions_from_three.cache_clear()
    assert [solve_game24(hand) for hand in reversed(HANDS)] == cold[::-1]
    assert [solve_game24(hand) for hand in HANDS] == cold


def test_generated_and_offline_files_are_pinned(tmp_path):
    # digests of the files the per-path solver wrote for this draw
    instances = generate_instances("game24", 80, 1, "1-10")
    write_instances(tmp_path / "instances.jsonl", instances)
    assert write_offline_game24(tmp_path / "offline.jsonl", instances) == 1058
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("instances.jsonl", "offline.jsonl")}
    assert digest == {
        "instances.jsonl": "66d3e583294025f9f63559ee3641b07723d5ab5a6d016347687982eb136a5916",
        "offline.jsonl": "2aff06d4dfc315d206e3eaf483f2dbcb71948a0414d28d33044844a8491302f9",
    }
