"""Game of 24: combine four numbers with +,-,*,/ to reach exactly 24.

States are multisets of rationals; arithmetic is exact (fractions.Fraction),
so the success test is equality with 24, never within-epsilon. Actions are
canonical equation strings like "4 + 8 = 12" with commutative operands sorted,
which makes "8 + 4" and "4 + 8" the same action and the same solution-key
entry. State keys embed the equation history (tree mode), but everything
derived from a state depends only on its `|left=` suffix, the decision key:
one process-wide table decodes each multiset once, and every env and every
history reaching it reuses the decode; an entry links each action to its
child's entry. Its feature rows read nothing else either, so an entry keeps
them too, as an int8 template filled on first read from what the entry knows:
each action's operator and operand ranks and the columns its child sets (kept
on the child's entry). Every env in the process reads the same template.

The solver behind generation and the offline files, `solve_game24`, reads the
hand's solutions off the same table: an entry keeps the solution suffixes from
its multiset, so each multiset is solved once per process, not once per path,
and the table is game24's only process-wide memo.

Each env maps the state strings its `children` builds, those of its `Dag`, to
their entries, so a query on a walked state parses nothing.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

import numpy as np

from ..errors import GenerationError, InvalidActionError, TerminalQueryError
from ..rngutil import substream
from .base import EnvInstance, Environment, bounded_put

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
_OPS = "+-*/"
_N_BUCKETS = 20
_SUCCESSOR = 4 + 16
_FLAGS = _SUCCESSOR + 3 + 3 * _N_BUCKETS
FEATURE_DIM = _FLAGS + 3 + 4 + 1


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


# what a terminal entry holds for `next`: it has no actions
_NOTHING = MappingProxyType({})


class _Decoded:
    """Everything one multiset of numbers left yields, decoded once per process.

    `terminal` (one number left) and `solved` (that number is 24) are set when
    the entry is made, since every state is asked whether it is terminal. The
    rest is filled on first read (`__getattr__`), because many entries are only
    ever met as the child of some entry:
      - `next` maps each valid equation, in `enumerate_actions` order, to the
        entry of the multiset it leaves, and `actions` is the list of those
        equations that `valid_actions` returns; callers must not change it.
        They do not depend on an env. A terminal has no actions, so its
        `next` is the shared empty `_NOTHING`.
      - `columns`: the feature columns that every row whose action leads to
        this multiset sets to 1 (see `_successor_columns`).
      - `rows`: the feature rows of `actions` (see `_fill_rows`), as an int8
        template that `feature_matrix` widens; callers must not change it.
      - `key`: "|left=" + `left`, the decision key of the states it decodes.
      - `potential`: the `progress` scorer's estimate, minus the distance
        from 24 of the closest number and minus the count of numbers.
      - `solutions`: the solution suffixes (equations joined by ";") from
        this multiset. Two numbers read theirs off `enumerate_actions`, so
        no one-number entry is made; `fmt` is canonical, so they end in " = 24".
    """

    __slots__ = ("values", "left", "terminal", "solved",
                 "next", "actions", "columns", "rows", "potential", "solutions", "key")

    def __init__(self, values: tuple[Fraction, ...], left: str | None = None):
        self.values = values
        self.left = fmt_values(values) if left is None else left
        self.terminal = len(values) == 1
        self.solved = self.terminal and values[0] == TARGET

    def __getattr__(self, name):
        # runs only while the slot `name` is unset: fill it, then read it
        if name == "next":
            self.next = _NOTHING if self.terminal else {
                eq: _entry(fmt_values(nxt), nxt) for eq, nxt in enumerate_actions(self.values)}
        elif name == "actions":
            self.actions = list(self.next)
        elif name == "key":
            self.key = "|left=" + self.left
        elif name == "columns":
            self.columns = _successor_columns(self.values)
        elif name == "rows":
            self.rows = _fill_rows(self)
        elif name == "potential":
            closest = min(abs(float(v - TARGET)) for v in self.values)
            self.potential = -closest - len(self.values)
        elif name == "solutions":
            if len(self.values) == 2:
                self.solutions = tuple(eq for eq, _ in enumerate_actions(self.values)
                                       if eq.endswith(" = 24"))
            else:
                self.solutions = tuple(f"{eq};{rest}" for eq, child in self.next.items()
                                       for rest in child.solutions)
        else:
            raise AttributeError(name)
        return getattr(self, name)


# `|left=` text -> its entry, read by the envs and the solver of the whole
# process. TABLE_ENTRIES holds the 40,668 multisets that `flowseek oracle` meets
# on `gen --count 200`, so such a run decodes each once; past it the oldest goes
# (a later query decodes an equal one, while a parent's `next` keeps the old)
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


def _fill_rows(ctx: _Decoded) -> np.ndarray:
    """The int8 feature rows of the actions at `ctx`, in `actions` order.

    A row sets its operator, its operand-rank pair and its child's `columns`.
    It runs once per entry and calls no env method."""
    ranks: dict[str, int] = {}  # operand string -> its first index in the sorted values
    for rank, v in enumerate(ctx.values):
        ranks.setdefault(fmt(v), rank)
    rows = np.zeros((len(ctx.next), FEATURE_DIM), np.int8)
    for row, (action, child) in enumerate(ctx.next.items()):
        x, op, y, _ = action.split(" ", 3)
        # operand strings are canonical, so equal strings mean equal values
        rank_x = ranks[x]
        rank_y = rank_x + 1 if y == x else ranks[y]
        rows[row, [_OPS.index(op), 4 + min(rank_x, 3) * 4 + min(rank_y, 3), *child.columns]] = 1
    return rows


class Game24Env(Environment):
    """`children` maps each state string it builds to its decode entry, which
    every query reads before it parses a string; `apply` maps nothing."""

    env_id = "game24"
    parent_mode = "tree"
    solution_sep = ";"
    reads_scorer = True
    reward_start = 1.0  # the reward is success term + the product of step scores
    feature_dim = FEATURE_DIM

    def parse_instance(self):
        if not _context(self.s0).values or self.goal != fmt(TARGET):
            raise ValueError("s0 must hold numbers and the goal must be 24")
        self._entries: dict[str, _Decoded] = {}  # see `children`

    def _ctx(self, state):
        return self._entries.get(state) or _context(state)

    def decision_key(self, state):
        # the `|left=` suffix: actions and features never read the history
        ctx = self._entries.get(state)
        return state[state.index("|left=") :] if ctx is None else ctx.key

    def valid_actions(self, state):
        ctx = self._ctx(state)
        if ctx.terminal:
            raise TerminalQueryError(f"state {state!r} is terminal")
        return ctx.actions

    def apply(self, state, action):
        ctx = self._ctx(state)
        child = ctx.next.get(action)
        if child is None:
            raise InvalidActionError(f"action {action!r} invalid at left={ctx.left}")
        return f"{_head(state)}{action}|left={child.left}"

    def children(self, state):
        # the base method's list, with one lookup and one history head per state
        ctx = self._ctx(state)
        if ctx.terminal:
            return None
        head = _head(state)
        kids = []
        for action, child in ctx.next.items():
            kid = f"{head}{action}|left={child.left}"
            self._entries[kid] = child
            kids.append((action, kid))
        return kids

    def is_terminal(self, state):
        return self._ctx(state).terminal

    def solved(self, terminal):
        return self._ctx(terminal).solved

    def reward_step(self, acc, state, child):
        return acc * self.step_score(state, child)

    def potential(self, state):
        return self._ctx(state).potential

    # -- features ---------------------------------------------------------------

    def feature_matrix(self, state):
        return self._ctx(state).rows.astype(np.float64)


def _head(state: str) -> str:
    """What a child's key puts before its action: "h=", or "h=<history>;"."""
    head = state[: state.index("|left=")]
    return head if head == "h=" else head + ";"


def solve_game24(numbers) -> set[str]:
    """All distinct solution keys for four rationals, by exhaustive search.

    The keys are the `solutions` of the hand's decode entry, so generation,
    the offline writer and the envs share one decode of each multiset."""
    values = tuple(sorted(Fraction(n) for n in numbers))
    if len(values) != 4:
        raise ValueError("Game24 takes exactly four numbers")
    return set(_entry(fmt_values(values), values).solutions)


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
        inst = make_instance(nums, f"game24-{seed}-{len(out)}")
        if inst.gold_solutions:
            out.append(inst)
    return out
