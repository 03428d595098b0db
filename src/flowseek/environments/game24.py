"""Game of 24: combine four numbers with +,-,*,/ to reach exactly 24.

States are multisets of rationals; arithmetic is exact (fractions.Fraction),
so the success test is equality with 24, never within-epsilon. Actions are
canonical equation strings like "4 + 8 = 12" with commutative operands sorted,
which makes "8 + 4" and "4 + 8" the same action and the same solution-key
entry. State keys embed the equation history (tree mode), but everything
derived from a state depends only on its `|left=` suffix, the decision key:
one process-wide table decodes each multiset once, and every env and every
history reaching it reuses the decode. Its feature rows read nothing else
either, so envs built together share them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from ..errors import GenerationError, InvalidActionError, TerminalQueryError
from ..rngutil import substream
from .base import EnvInstance, Environment, bounded_put, hashed_features

TARGET = Fraction(24)


def fmt(v: Fraction) -> str:
    return str(v)


def parse_values(text: str) -> tuple[Fraction, ...]:
    return tuple(sorted(Fraction(tok) for tok in text.split()))


def fmt_values(values: tuple[Fraction, ...]) -> str:
    return " ".join(fmt(v) for v in sorted(values))


@lru_cache(maxsize=65536)
def enumerate_actions(values: tuple[Fraction, ...]) -> list[tuple[str, tuple[Fraction, ...]]]:
    """All legal (equation, successor multiset) pairs from `values`.

    Commutative duplicates collapse to one canonical equation; division by
    zero is excluded. Order is deterministic: value pairs ascending, operators
    in a fixed sequence.
    """
    values = tuple(sorted(values))
    seen: dict[str, tuple[Fraction, ...]] = {}
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
            (f"{fmt(a)} + {fmt(b)} = {fmt(a + b)}", a + b),
            (f"{fmt(a)} * {fmt(b)} = {fmt(a * b)}", a * b),
            (f"{fmt(a)} - {fmt(b)} = {fmt(a - b)}", a - b),
            (f"{fmt(b)} - {fmt(a)} = {fmt(b - a)}", b - a),
        ]
        if b != 0:
            candidates.append((f"{fmt(a)} / {fmt(b)} = {fmt(a / b)}", a / b))
        if a != 0:
            candidates.append((f"{fmt(b)} / {fmt(a)} = {fmt(b / a)}", b / a))
        for eq, result in candidates:
            if eq not in seen:
                seen[eq] = tuple(sorted(rest + [result]))
    return list(seen.items())


@lru_cache(maxsize=65536)
def _pairs_reaching_target(values: tuple[Fraction, ...]) -> int:
    """How many value pairs in the multiset combine to 24 with a single operation."""
    count = 0
    seen = set()
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


# what a terminal entry holds for `successors`, `child_keys` and `ranks`
_NOTHING = MappingProxyType({})


class _Decoded:
    """Everything one multiset of numbers left yields, decoded once per process.

    `successors` maps each valid equation to its successor multiset (in
    `enumerate_actions` order), and `ranks` maps each operand string to its
    first index in the sorted values. `child_keys` holds the successor's
    `|left=` key suffix for each equation applied so far; it does not depend
    on an env. A terminal (one number) has no actions and no rows, so all
    three are the shared empty `_NOTHING`.
    """

    __slots__ = ("values", "left", "successors", "child_keys", "ranks")

    def __init__(self, values: tuple[Fraction, ...]):
        self.values = values
        self.left = fmt_values(values)
        if len(values) == 1:
            self.successors = self.child_keys = self.ranks = _NOTHING
            return
        self.successors = dict(enumerate_actions(values))
        self.child_keys: dict[str, str] = {}
        self.ranks: dict[str, int] = {}
        for rank, v in enumerate(values):
            self.ranks.setdefault(fmt(v), rank)


# `|left=` text -> its entry, for the whole process. TABLE_ENTRIES holds the
# 40,668 multisets that `flowseek oracle` meets on `gen --count 200` (about
# 50 MB), so such a run decodes each once; past it the oldest entry goes (a
# later query decodes it again)
_TABLE: dict[str, _Decoded] = {}
TABLE_ENTRIES = 65536


def _context(state: str) -> _Decoded:
    left = state[state.index("|left=") + len("|left=") :]
    ctx = _TABLE.get(left)
    if ctx is None:
        ctx = bounded_put(_TABLE, left, _Decoded(parse_values(left)), TABLE_ENTRIES)
    return ctx


class Game24Env(Environment):
    env_id = "game24"
    parent_mode = "tree"
    solution_sep = ";"
    reads_scorer = True
    reward_start = 1.0  # the reward is success term + the product of step scores
    shared_rows = True  # rows are keyed on the numbers left and read nothing else

    _OPS = "+-*/"
    _N_HASHED = 32

    def parse_instance(self):
        if not _context(self.s0).values or self.goal != fmt(TARGET):
            raise ValueError("s0 must hold numbers and the goal must be 24")

    def decision_key(self, state):
        # the `|left=` suffix: actions and features never read the history
        return state[state.index("|left=") :]

    def valid_actions(self, state):
        if self.is_terminal(state):
            raise TerminalQueryError(f"state {state!r} is terminal")
        return list(_context(state).successors)

    def apply(self, state, action):
        ctx = _context(state)
        tail = ctx.child_keys.get(action)
        if tail is None:
            nxt = ctx.successors.get(action)
            if nxt is None:
                raise InvalidActionError(f"action {action!r} invalid at {state!r}")
            tail = ctx.child_keys[action] = f"|left={fmt_values(nxt)}"
        # same string as "h=" + ";".join(history + [action]) + tail
        head = state[: state.index("|left=")]
        sep = "" if head == "h=" else ";"
        return f"{head}{sep}{action}{tail}"

    def is_terminal(self, state):
        return len(_context(state).values) == 1

    def is_success(self, traj):
        return _context(traj.states[-1]).values == (TARGET,)

    def success_term(self, terminal):
        return self.w if _context(terminal).values == (TARGET,) else 0.0

    def reward_step(self, acc, state, action, child):
        return acc * self.step_score(state, action)

    def potential(self, state):
        values = _context(state).values
        closest = min(abs(float(v - TARGET)) for v in values)
        return -closest - len(values)

    # -- features ---------------------------------------------------------------

    _N_BUCKETS = 20

    @staticmethod
    def _bucket(v: Fraction) -> int:
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

    @property
    def feature_dim(self):
        # op(4) + rank pair(16) + result count(3) + slot buckets(3*20)
        # + {contains 24, solved next, one-left-not-24}(3)
        # + combinable-pair count(3) + two-left-combinable(1) + bias(1) + hashed
        return 4 + 16 + 3 + 3 * self._N_BUCKETS + 3 + 4 + 1 + self._N_HASHED

    def featurize(self, state, action):
        ctx = _context(state)
        nxt = ctx.successors.get(action)
        if nxt is None:
            raise InvalidActionError(f"action {action!r} invalid at {state!r}")

        lhs = action.split(" = ")[0]
        x_str, op, y_str = lhs.split(" ")
        # operand strings are canonical, so equal strings mean equal values
        rank_x = ctx.ranks[x_str]
        rank_y = rank_x + 1 if y_str == x_str else ctx.ranks[y_str]

        vec = np.zeros(self.feature_dim)
        off = 0
        vec[off + self._OPS.index(op)] = 1.0
        off += 4
        vec[off + min(rank_x, 3) * 4 + min(rank_y, 3)] = 1.0
        off += 16
        vec[off + len(nxt) - 1] = 1.0
        off += 3
        for slot, v in enumerate(nxt[:3]):  # successors are sorted multisets
            vec[off + slot * self._N_BUCKETS + self._bucket(v)] = 1.0
        off += 3 * self._N_BUCKETS
        if TARGET in nxt:
            vec[off] = 1.0
        if len(nxt) == 1 and nxt[0] == TARGET:
            vec[off + 1] = 1.0
        if len(nxt) == 1 and nxt[0] != TARGET:
            vec[off + 2] = 1.0
        off += 3
        pairs24 = _pairs_reaching_target(nxt)
        vec[off + min(pairs24, 2)] = 1.0
        if len(nxt) == 2 and pairs24 > 0:
            vec[off + 3] = 1.0
        off += 4
        vec[off] = 1.0
        off += 1
        vec[off:] = hashed_features(
            self._N_HASHED, ("g24v", ctx.left), ("g24a", action), ("g24va", ctx.left, action)
        )
        return vec


def solve_game24(numbers) -> set[str]:
    """All distinct solution keys for four rationals, by exhaustive search."""
    values = tuple(sorted(Fraction(n) for n in numbers))
    if len(values) != 4:
        raise ValueError("Game24 takes exactly four numbers")
    solutions: set[str] = set()

    def recurse(vals: tuple[Fraction, ...], path: list[str]) -> None:
        if len(vals) == 1:
            if vals[0] == TARGET:
                solutions.add(";".join(path))
            return
        for eq, nxt in enumerate_actions(vals):
            path.append(eq)
            recurse(nxt, path)
            path.pop()

    recurse(values, [])
    return solutions


def make_instance(numbers, instance_id: str, split: str = "default") -> EnvInstance:
    values = tuple(sorted(Fraction(n) for n in numbers))
    keys = solve_game24(values)
    return EnvInstance(
        env_id="game24",
        instance_id=instance_id,
        s0=f"h=|left={fmt_values(values)}",
        goal="24",
        max_steps=3,
        gold_solutions=sorted(keys) or None,
        split=split,
    )


def generate_instances(count: int, seed: int, difficulty: str | None = None) -> list[EnvInstance]:
    """Solvable draws of four integers; difficulty "lo-hi" bounds the operands."""
    lo, hi = 1, 13
    if difficulty:
        try:
            lo, hi = (int(t) for t in difficulty.split("-"))
        except ValueError:
            raise GenerationError(f"bad game24 difficulty {difficulty!r}, want e.g. '1-13'")
    rng = substream(seed, "gen", "game24", difficulty or "")
    out: list[EnvInstance] = []
    seen: set[tuple] = set()
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200 * count + 1000:
            raise GenerationError(f"could not generate {count} solvable game24 instances")
        nums = tuple(sorted(int(v) for v in rng.integers(lo, hi + 1, size=4)))
        if nums in seen:
            continue
        seen.add(nums)
        if not solve_game24(nums):
            continue
        out.append(make_instance(nums, f"game24-{seed}-{len(out)}"))
    return out
