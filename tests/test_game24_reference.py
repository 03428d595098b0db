"""game24 rows and terminal flags against a from-scratch reference.

The env reads its rows and flags from facts kept once per multiset on the
process-wide decode table. The reference below recomputes every row from the
state text alone, as the per-row featurizer did before those facts existed:
bucketing, the 24 tests and the combinable-pair count.
The hands reach every bucket branch (negative, zero, non-integer, 1-13,
14-23, 24, 25-48, over 48) and repeat numbers, and a second env set, built
after other hands have filled the table, must give the same rows.
"""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from flowseek.environments import game24, make_envs
from flowseek.environments.game24 import enumerate_actions, generate_instances, make_instance

TARGET = Fraction(24)
N_BUCKETS = 20


def ref_values(state):
    return tuple(sorted(Fraction(tok) for tok in state.split("|left=")[1].split()))


def ref_bucket(v):
    if v < 0:
        return 0
    if v == 0:
        return 1
    if v.denominator != 1:
        return 2
    n = v.numerator
    if 1 <= n <= 13:
        return 2 + n
    if n <= 23:
        return 16
    if n == 24:
        return 17
    if n <= 48:
        return 18
    return 19


def ref_pairs_reaching_target(values):
    count, seen = 0, set()
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            a, b = values[i], values[j]
            if (a, b) in seen:
                continue
            seen.add((a, b))
            results = {a + b, a * b, a - b, b - a}
            if b != 0:
                results.add(a / b)
            if a != 0:
                results.add(b / a)
            if TARGET in results:
                count += 1
    return count


def ref_featurize(state, action):
    values = ref_values(state)
    nxt = dict(enumerate_actions(values))[action]
    ranks = {}
    for rank, v in enumerate(values):
        ranks.setdefault(str(v), rank)
    x_str, op, y_str = action.split(" = ")[0].split(" ")
    rank_x = ranks[x_str]
    rank_y = rank_x + 1 if y_str == x_str else ranks[y_str]

    vec = np.zeros(4 + 16 + 3 + 3 * N_BUCKETS + 3 + 4 + 1)
    off = 0
    vec[off + "+-*/".index(op)] = 1.0
    off += 4
    vec[off + min(rank_x, 3) * 4 + min(rank_y, 3)] = 1.0
    off += 16
    vec[off + len(nxt) - 1] = 1.0
    off += 3
    for slot, v in enumerate(nxt[:3]):
        vec[off + slot * N_BUCKETS + ref_bucket(v)] = 1.0
    off += 3 * N_BUCKETS
    if TARGET in nxt:
        vec[off] = 1.0
    if len(nxt) == 1 and nxt[0] == TARGET:
        vec[off + 1] = 1.0
    if len(nxt) == 1 and nxt[0] != TARGET:
        vec[off + 2] = 1.0
    off += 3
    pairs24 = ref_pairs_reaching_target(nxt)
    vec[off + min(pairs24, 2)] = 1.0
    if len(nxt) == 2 and pairs24 > 0:
        vec[off + 3] = 1.0
    off += 4
    vec[off] = 1.0
    return vec


def ref_is_terminal(state):
    return len(ref_values(state)) == 1


def ref_is_success(state):
    return ref_values(state) == (TARGET,)


def ref_success_term(w, state):
    return w if ref_values(state) == (TARGET,) else 0.0


def branch(v):
    """The `ref_bucket` branch a successor value falls in."""
    b = ref_bucket(v)
    return "1-13" if 3 <= b <= 15 else b


def hands():
    # a zero only enters through --difficulty 0-13; numbers up to 13 reach
    # every other branch; all but the last hand repeat a number
    zero = next(i for i in generate_instances(40, seed=1, difficulty="0-13")
                if " 0 " in f" {i.s0.split('|left=')[1]} ")
    return [zero, make_instance([4, 4, 6, 8], "a"), make_instance([3, 3, 8, 8], "b"),
            make_instance([1, 1, 1, 1], "c"), make_instance([9, 12, 13, 13], "d"),
            make_instance([2, 5, 7, 11], "e")]


def check_env(env, branches=None):
    """Every reachable state's flags and every decision point's rows against the reference."""
    rows_checked = 0
    seen_keys = set()
    stack = [env.s0]
    while stack:
        state = stack.pop()
        terminal = env.is_terminal(state)
        assert terminal == ref_is_terminal(state), state
        # a trajectory cut short is no success, even with a 24 among its numbers
        assert env.is_success(SimpleNamespace(states=[state])) == ref_is_success(state), state
        if terminal:
            assert env.success_term(state) == ref_success_term(env.w, state), state
            continue
        key = env.decision_key(state)
        kids = env.children(state)
        if key not in seen_keys:
            seen_keys.add(key)
            actions = env.cached_valid_actions(state)
            ref = np.stack([ref_featurize(state, a) for a in actions])
            assert np.array_equal(env.feature_matrix(state), ref), state
            if branches is not None:
                for _, nxt in enumerate_actions(ref_values(state)):
                    branches.update(branch(v) for v in nxt[:3])
            rows_checked += len(ref)
        stack.extend(child for _, child in kids)
    return rows_checked


@pytest.fixture
def fresh_table(monkeypatch):
    monkeypatch.setattr(game24, "_TABLE", {})


def test_rows_and_flags_match_the_reference(fresh_table):
    instances = hands()
    branches = set()
    envs = make_envs(instances)
    rows = sum(check_env(envs[inst.instance_id], branches) for inst in instances)
    assert branches == {0, 1, 2, "1-13", 16, 17, 18, 19}
    assert rows > 5_000


def test_a_second_env_set_reads_the_filled_table_to_the_same_rows(fresh_table):
    instances = hands()
    first = make_envs(instances[1:])
    for inst in instances[1:]:
        check_env(first[inst.instance_id])
    filled = len(game24._TABLE)
    # the second set starts where the first left off: most multisets of its
    # hands are already decoded, with their facts filled by other hands' rows
    second = make_envs(list(reversed(instances)))
    for inst in instances:
        check_env(second[inst.instance_id])
    assert len(game24._TABLE) > filled


def test_success_term_reads_the_success_weight(fresh_table):
    env = make_envs([make_instance([4, 4, 6, 8], "w")], success_weight=7.5)["w"]
    solved, missed = "h=x|left=24", "h=x|left=23"
    assert env.is_terminal(solved) and env.is_terminal(missed)
    assert (env.success_term(solved), env.success_term(missed)) == (7.5, 0.0)
    # the one number left may be written in any form that parses to 24
    assert env.success_term("h=x|left=48/2") == 7.5
