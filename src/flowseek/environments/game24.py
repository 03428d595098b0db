"""Game of 24: combine four numbers with +,-,*,/ to reach exactly 24.

States are multisets of rationals; arithmetic is exact (fractions.Fraction),
so the success test is equality with 24, never within-epsilon. Actions are
canonical equation strings like "4 + 8 = 12" with commutative operands sorted,
which makes "8 + 4" and "4 + 8" the same action and the same solution-key
entry. State keys embed the equation history (tree mode), but everything
derived from a state depends only on its `|left=` suffix, the decision key:
one process-wide table decodes each multiset once, and every env and every
history reaching it reuses the decode. Its feature rows read nothing else
either, so an entry keeps them too, as an int8 template filled on first read
from what the entry knows: each action's operator and operand ranks, the
columns its successor multiset sets (kept on the successor's entry) and the
row's hashed tokens, hashed once per entry. Every env in the process reads
the same template.

The solver behind generation and the offline files, `solve_game24`, keeps the
solution suffixes of each three-number multiset in a bounded memo and reads
the last step off `enumerate_actions`, so a hand is solved in one pass over
its own actions rather than once per path.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from ..errors import GenerationError, InvalidActionError, TerminalQueryError
from ..rngutil import substream
from .base import EnvInstance, Environment, bounded_put, hash_slot

TARGET = Fraction(24)


def fmt(v: Fraction) -> str:
    return str(v)


def parse_values(text: str) -> tuple[Fraction, ...]:
    return tuple(sorted(Fraction(tok) for tok in text.split()))


def fmt_values(values: tuple[Fraction, ...]) -> str:
    return " ".join(fmt(v) for v in sorted(values))


def _distinct_pairs(values: tuple[Fraction, ...]):
    """Each distinct value pair of the sorted `values` once, at its first
    index pair, with the rest of the multiset (still sorted)."""
    for i, a in enumerate(values):
        if i and a == values[i - 1]:
            continue
        for j in range(i + 1, len(values)):
            if j == i + 1 or values[j] != values[j - 1]:
                yield a, values[j], values[:i] + values[i + 1 : j] + values[j + 1 :]


@lru_cache(maxsize=65536)
def enumerate_actions(values: tuple[Fraction, ...]) -> list[tuple[str, tuple[Fraction, ...]]]:
    """All legal (equation, successor multiset) pairs from `values`.

    Commutative duplicates collapse to one canonical equation; division by
    zero is excluded. Order is deterministic: value pairs ascending, operators
    in a fixed sequence.
    """
    seen: dict[str, tuple[Fraction, ...]] = {}
    for a, b, rest in _distinct_pairs(tuple(sorted(values))):
        x, y = fmt(a), fmt(b)
        candidates = [(f"{x} + {y}", a + b), (f"{x} * {y}", a * b),
                      (f"{x} - {y}", a - b), (f"{y} - {x}", b - a)]
        if b != 0:
            candidates.append((f"{x} / {y}", a / b))
        if a != 0:
            candidates.append((f"{y} / {x}", b / a))
        for lhs, result in candidates:
            eq = f"{lhs} = {fmt(result)}"
            if eq not in seen:
                seen[eq] = tuple(sorted(rest + (result,)))
    return list(seen.items())


@lru_cache(maxsize=65536)
def _pairs_reaching_target(values: tuple[Fraction, ...]) -> int:
    """How many value pairs in the sorted multiset combine to 24 with a single operation."""
    return sum(
        a + b == TARGET or a * b == TARGET or a - b == TARGET or b - a == TARGET
        or (b != 0 and a / b == TARGET) or (a != 0 and b / a == TARGET)
        for a, b, _ in _distinct_pairs(values)
    )


# feature columns. Per action: the operator (4) and the operand-rank pair (16).
# Then the successor multiset's own columns, the same for every action that
# leads to it: result count (3), the buckets of its first three values
# (3 x 20), {contains 24, solved next, one left not 24} (3), the
# combinable-pair count (3), two left and combinable (1) and the bias (1).
# The signed hashes come last.
_OPS = "+-*/"
_N_BUCKETS = 20
_N_HASHED = 32
_SUCCESSOR = 4 + 16
_FLAGS = _SUCCESSOR + 3 + 3 * _N_BUCKETS
_HASHED = _FLAGS + 3 + 4 + 1
FEATURE_DIM = _HASHED + _N_HASHED


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


def _successor_columns(values: tuple[Fraction, ...]) -> tuple[int, ...]:
    """The columns a row sets to 1 when its action leaves `values` (sorted)."""
    cols = [_SUCCESSOR + len(values) - 1]
    for slot, v in enumerate(values[:3]):
        cols.append(_SUCCESSOR + 3 + slot * _N_BUCKETS + _bucket(v))
    if TARGET in values:
        cols.append(_FLAGS)
    if len(values) == 1:
        cols.append(_FLAGS + 1 if values[0] == TARGET else _FLAGS + 2)
    pairs24 = _pairs_reaching_target(values)
    cols.append(_FLAGS + 3 + min(pairs24, 2))
    if len(values) == 2 and pairs24 > 0:
        cols.append(_FLAGS + 6)
    cols.append(_FLAGS + 7)  # bias
    return tuple(cols)


# what a terminal entry holds for `successors` and `child_keys`
_NOTHING = MappingProxyType({})


class _Decoded:
    """Everything one multiset of numbers left yields, decoded once per process.

    `terminal` (one number left) and `solved` (that number is 24) are set when
    the entry is made, since every state is asked whether it is terminal. The
    rest is filled on first read (`__getattr__`), because many entries are only
    ever met as the successor of some row:
      - `successors` maps each valid equation to its successor multiset (in
        `enumerate_actions` order), and `child_keys` maps each equation applied
        or read into a row so far to its successor's `|left=` text. They do not
        depend on an env. A terminal has no actions, so both are the shared
        empty `_NOTHING`.
      - `columns`: the feature columns that every row whose action leads to
        this multiset sets to 1 (see `_successor_columns`).
      - `rows`: the feature rows of the valid equations (see `_fill_rows`),
        as an int8 template that `feature_matrix` widens; callers must not
        change it.
      - `potential`: the `progress` scorer's estimate, minus the distance
        from 24 of the closest number and minus the count of numbers.
    """

    __slots__ = ("values", "left", "terminal", "solved",
                 "successors", "child_keys", "columns", "rows", "potential")

    def __init__(self, values: tuple[Fraction, ...], left: str | None = None):
        self.values = values
        self.left = fmt_values(values) if left is None else left
        self.terminal = len(values) == 1
        self.solved = self.terminal and values[0] == TARGET

    def __getattr__(self, name):
        # runs only while the slot `name` is unset: fill it, then read it
        if name in ("successors", "child_keys"):
            if self.terminal:
                self.successors = self.child_keys = _NOTHING
            else:
                self.successors = dict(enumerate_actions(self.values))
                self.child_keys = {}
        elif name == "columns":
            self.columns = _successor_columns(self.values)
        elif name == "rows":
            self.rows = _fill_rows(self)
        elif name == "potential":
            closest = min(abs(float(v - TARGET)) for v in self.values)
            self.potential = -closest - len(self.values)
        else:
            raise AttributeError(name)
        return getattr(self, name)


# `|left=` text -> its entry, for the whole process. TABLE_ENTRIES holds the
# 40,668 multisets that `flowseek oracle` meets on `gen --count 200`, so such
# a run decodes each once; past it the oldest entry goes, with its rows (a
# later query decodes it again)
_TABLE: dict[str, _Decoded] = {}
TABLE_ENTRIES = 65536


def _entry(left: str, values: tuple[Fraction, ...] | None = None) -> _Decoded:
    """The entry of the `|left=` text `left`; on a miss it is decoded from
    `values` when the caller holds them (then `left` must be their canonical text)."""
    entry = _TABLE.get(left)
    if entry is None:
        entry = _Decoded(parse_values(left)) if values is None else _Decoded(values, left)
        bounded_put(_TABLE, left, entry, TABLE_ENTRIES)
    return entry


def _context(state: str) -> _Decoded:
    return _entry(state[state.index("|left=") + len("|left=") :])


def _child_left(ctx: _Decoded, action: str) -> str:
    """The `|left=` text that `action` leaves at the multiset of `ctx`."""
    left = ctx.child_keys.get(action)
    if left is None:
        nxt = ctx.successors.get(action)
        if nxt is None:
            raise InvalidActionError(f"action {action!r} invalid at left={ctx.left}")
        left = ctx.child_keys[action] = fmt_values(nxt)
    return left


def _fill_rows(ctx: _Decoded) -> np.ndarray:
    """The int8 feature rows of the actions at `ctx`, in `successors` order.

    A row sets its operator, its operand-rank pair and its successor's
    `columns`, and adds the signed hashes of `("g24v", left)`,
    `("g24a", action)` and `("g24va", left, action)`. It runs once per entry
    and calls no env method."""
    ranks: dict[str, int] = {}  # operand string -> its first index in the sorted values
    for rank, v in enumerate(ctx.values):
        ranks.setdefault(fmt(v), rank)
    rows = np.zeros((len(ctx.successors), FEATURE_DIM), np.int8)
    value_slot = hash_slot(_N_HASHED, ("g24v", ctx.left))
    for row, (action, nxt) in enumerate(ctx.successors.items()):
        x, op, y, _ = action.split(" ", 3)
        # operand strings are canonical, so equal strings mean equal values
        rank_x = ranks[x]
        rank_y = rank_x + 1 if y == x else ranks[y]
        child = _entry(_child_left(ctx, action), nxt)
        rows[row, [_OPS.index(op), 4 + min(rank_x, 3) * 4 + min(rank_y, 3), *child.columns]] = 1
        for idx, sign in (value_slot, hash_slot(_N_HASHED, ("g24a", action)),
                          hash_slot(_N_HASHED, ("g24va", ctx.left, action))):
            rows[row, _HASHED + idx] += int(sign)
    return rows


class Game24Env(Environment):
    env_id = "game24"
    parent_mode = "tree"
    solution_sep = ";"
    reads_scorer = True
    reward_start = 1.0  # the reward is success term + the product of step scores

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
        left = _child_left(_context(state), action)
        # same string as "h=" + ";".join(history + [action]) + "|left=" + left
        head = state[: state.index("|left=")]
        sep = "" if head == "h=" else ";"
        return f"{head}{sep}{action}|left={left}"

    def is_terminal(self, state):
        return _context(state).terminal

    def is_success(self, traj):
        return _context(traj.states[-1]).solved

    def success_term(self, terminal):
        return self.w if _context(terminal).solved else 0.0

    def reward_step(self, acc, state, action, child):
        return acc * self.step_score(state, action)

    def potential(self, state):
        return _context(state).potential

    # -- features ---------------------------------------------------------------

    @property
    def feature_dim(self):
        return FEATURE_DIM

    def feature_matrix(self, state):
        return _context(state).rows.astype(np.float64)


@lru_cache(maxsize=65536)
def _solutions_from_three(values: tuple[Fraction, ...]) -> tuple[str, ...]:
    """The two-step solution suffixes from three numbers: each action joined
    to each last action that leaves 24 (`fmt` is canonical, so its equation
    ends in " = 24")."""
    return tuple(
        f"{eq};{last}"
        for eq, pair in enumerate_actions(values)
        for last, _ in enumerate_actions(pair)
        if last.endswith(" = 24")
    )


def solve_game24(numbers) -> set[str]:
    """All distinct solution keys for four rationals, by exhaustive search.

    Each key is a first action joined to a suffix from the three numbers it
    leaves, and the suffixes are kept per multiset, so a hand costs one pass
    over its own actions once its three-number multisets have been met."""
    values = tuple(sorted(Fraction(n) for n in numbers))
    if len(values) != 4:
        raise ValueError("Game24 takes exactly four numbers")
    return {f"{eq};{rest}" for eq, nxt in enumerate_actions(values)
            for rest in _solutions_from_three(nxt)}


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
    """Solvable draws of four integers; difficulty "lo-hi" (lo <= hi) bounds the operands."""
    lo, hi = 1, 13
    if difficulty:
        try:
            lo, hi = (int(t) for t in difficulty.split("-"))
            if not lo <= hi < 2**63:  # the draw is an int64
                raise ValueError
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
