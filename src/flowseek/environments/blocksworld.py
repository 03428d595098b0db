"""Block-stacking world with pickup/putdown/stack/unstack actions.

A configuration maps each placed block to its support (another block or the
table); at most one block is held. Preconditions follow the classic rules: a
block moves only if clear, pickup/unstack need an empty hand, stacking needs
a clear target. Goals are conjunctions of on-relations.

A state key is `t=<step>|hand=<block or ->|on=<block:support,...>`: the step
index (exact parent mode) and the configuration. Every key an env builds lists
the blocks sorted; a start read from an instance file may list them in any
order, which moves neither its actions nor its rows. Inside, an env reads
the step from the key and the configuration from one process-wide table that
fills lazily, one entry per configuration text. An entry holds only what no
goal changes: the supports, the valid actions in order, the entry each action
leads to, the parent entries that the four inverse actions reach and an int8
template of the actions' feature rows without their goal and step columns.
Goal facts (relations satisfied, goal met) are computed from an entry's
supports on each call, so envs with different goals share the table; an env
keeps its goal columns per entry in its own memo and writes them, with the
step column, on each call. A state's parent count is its number of
inverse-action parents that do not meet the goal: a terminal state has no
edges. The table holds at most one entry per configuration of each block set
seen: 866 for five blocks (the generator's 6-step instances), 125 for four and
22 for three.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import GenerationError, InvalidActionError, StructuralError
from ..rngutil import substream
from .base import EnvInstance, Environment, int_difficulty

COLORS = ["blue", "cyan", "orange", "red", "yellow", "violet", "white"]

# feature columns: action type(4) + satisfied count(5) + delta(3) + flags(4)
# + step fraction(1) + bias(1). Of the flags, 12 (improved), 13 (worsened)
# and 15 (moved block named by the goal) read the goal and 14 (hand empty
# after) does not
_VERBS = ("pickup", "putdown", "stack", "unstack")
_STEP_COLUMN = 16
FEATURE_DIM = 18


def _parse_config(text: str) -> tuple[str | None, dict[str, str]]:
    """The hand and supports of a `hand=…|on=…` configuration text."""
    hand_part, on_part = text.split("|")
    hand = hand_part[len("hand=") :]
    hand = None if hand == "-" else hand
    on: dict[str, str] = {}
    body = on_part[len("on=") :]
    if body:
        for item in body.split(","):
            block, support = item.split(":")
            on[block] = support
    return hand, on


def _encode_config(hand: str | None, on: dict[str, str]) -> str:
    body = ",".join(f"{b}:{on[b]}" for b in sorted(on))
    return f"hand={hand or '-'}|on={body}"


def _encode(step: int, hand: str | None, on: dict[str, str]) -> str:
    return f"t={step}|{_encode_config(hand, on)}"


def _parse_goal(goal: str) -> list[tuple[str, str]]:
    """The goal's (block, support) relations; ValueError if it is no `on=` list."""
    head, _, body = goal.partition("=")
    relations = [tuple(item.split(":")) for item in body.split(",")] if body else []
    if head != "on" or any(len(rel) != 2 for rel in relations):
        raise ValueError("the goal must be on= followed by block:support pairs")
    return relations


def _encode_goal(relations: list[tuple[str, str]]) -> str:
    return "on=" + ",".join(f"{b}:{s}" for b, s in sorted(relations))


def _move(hand: str | None, on: dict[str, str], action: str) -> tuple[str | None, dict[str, str]]:
    """The hand and supports after a valid `action`; `on` itself is not changed."""
    on = dict(on)
    verb, block, *target = action.split()
    if verb in ("pickup", "unstack"):
        del on[block]
        return block, on
    on[block] = target[0] if verb == "stack" else "table"
    return None, on


def _clear_blocks(on: dict[str, str]) -> set[str]:
    supports = set(on.values())
    return {b for b in on if b not in supports}


def _satisfied(on: dict[str, str], relations: list[tuple[str, str]]) -> int:
    return sum(1 for b, s in relations if on.get(b) == s)


def _goal_met(on: dict[str, str], relations: list[tuple[str, str]]) -> bool:
    for b, s in relations:
        if on.get(b) != s:
            return False
    return True


class _Config:
    """One configuration's goal-independent facts, shared by every env.

    `actions` is the list `valid_actions` returns. `next` (each action's
    entry), `parents` (the entries one action leads here from) and `rows` are
    filled on first read (`__getattr__`). `rows` holds the int8 feature rows
    of `actions` with the goal columns (4-13 and 15) and the step column 0: a
    row sets its action type, whether the hand is empty after it and the bias.
    Callers must not change `actions` or `rows`.
    """

    __slots__ = ("text", "hand", "on", "actions", "next", "rows", "parents")

    def __init__(self, text: str):
        hand, on = _parse_config(text)
        self.text, self.hand, self.on = text, hand, on
        clear = sorted(_clear_blocks(on))
        if hand is None:
            self.actions = [f"pickup {x}" if on[x] == "table" else f"unstack {x} {on[x]}"
                            for x in clear]
        else:
            self.actions = [f"putdown {hand}", *(f"stack {hand} {y}" for y in clear)]

    def __getattr__(self, name):
        # runs only while the slot `name` is unset: fill it, then read it
        if name == "next":
            self.next = {a: _entry(_encode_config(*_move(self.hand, self.on, a)))
                         for a in self.actions}
        elif name == "rows":
            rows = np.zeros((len(self.actions), FEATURE_DIM), np.int8)
            for row, action in enumerate(self.actions):
                rows[row, _VERBS.index(action.split()[0])] = 1
                rows[row, 14] = self.next[action].hand is None
                rows[row, 17] = 1  # the bias
            self.rows = rows
        elif name == "parents":
            hand, on = self.hand, self.on
            if hand is None:  # the last action put down or stacked some clear block x
                prev = [(x, {b: s for b, s in on.items() if b != x}) for x in _clear_blocks(on)]
            else:  # the last action lifted `hand` from the table or from a clear block
                prev = [(None, {**on, hand: s}) for s in ("table", *_clear_blocks(on))]
            self.parents = [_entry(_encode_config(*p)) for p in prev]
        else:
            raise AttributeError(name)
        return getattr(self, name)


_TABLE: dict[str, _Config] = {}  # configuration text -> its entry, for the whole process


def _entry(text: str) -> _Config:
    entry = _TABLE.get(text)
    if entry is None:
        entry = _TABLE[text] = _Config(text)
    return entry


def _read(state: str) -> tuple[int, _Config]:
    """The step and the configuration entry of a state key."""
    t_part, text = state.split("|", 1)
    return int(t_part[2:]), _entry(text)


def check_physics(state: str) -> None:
    """Raise StructuralError when the block relations are inconsistent."""
    hand, on = _parse_config(state.split("|", 1)[1])
    if hand is not None and hand in on:
        raise StructuralError(f"held block {hand} also has a support")
    supports: dict[str, int] = {}
    for block, support in on.items():
        if support != "table":
            supports[support] = supports.get(support, 0) + 1
            if support == hand:
                raise StructuralError(f"block {block} rests on the held block")
            if support not in on:
                raise StructuralError(f"block {block} rests on unplaced block {support}")
    for support, n in supports.items():
        if n > 1:
            raise StructuralError(f"block {support} carries {n} blocks")
    for block in on:  # no block may transitively support itself
        seen = set()
        cur = block
        while cur != "table":
            if cur in seen:
                raise StructuralError(f"support cycle through {block}")
            seen.add(cur)
            cur = on.get(cur, "table")


class BlocksWorldEnv(Environment):
    env_id = "blocksworld"
    parent_mode = "exact"
    reads_scorer = True
    reads_lambda = True
    feature_dim = FEATURE_DIM

    def parse_instance(self):
        check_physics(self.s0)
        self.goal_relations = _parse_goal(self.goal)
        self._goal_cells: dict[_Config, np.ndarray] = {}
        step, entry = _read(self.s0)
        named = {b for b, _ in self.goal_relations}
        named |= {s for _, s in self.goal_relations if s != "table"}
        missing = named - set(entry.on) - {entry.hand}
        if missing:
            raise StructuralError(f"the goal names {', '.join(sorted(missing))}, "
                                  "which the start does not hold")
        if step != 0:
            raise StructuralError(f"the start is at step {step}, not 0")
        if _goal_met(entry.on, self.goal_relations):
            raise StructuralError("the start already meets the goal")

    def _actions(self, state):
        return _read(state)[1].actions

    def apply(self, state, action):
        if action not in self.cached_valid_actions(state):
            raise InvalidActionError(f"action {action!r} invalid at {state!r}")
        step, entry = _read(state)
        return f"t={step + 1}|{entry.next[action].text}"

    def is_terminal(self, state):
        step, entry = _read(state)
        return step >= self.max_steps or _goal_met(entry.on, self.goal_relations)

    def solved(self, terminal):
        return _goal_met(_read(terminal)[1].on, self.goal_relations)

    def edge_term(self, state, child):
        return -1.0 / math.log(self.step_score(state, child))

    @property
    def edge_scale(self):
        return self.lam

    def parent_count(self, state):
        step, entry = _read(state)
        if step == 0:
            raise StructuralError("parent count undefined for the initial state")
        # a parent that meets the goal is terminal and has no edges
        count = 0
        for parent in entry.parents:
            if not _goal_met(parent.on, self.goal_relations):
                count += 1
        if count == 0:
            raise StructuralError(f"state {state!r} has no legal parents")
        return count

    def potential(self, state):
        return float(_satisfied(_read(state)[1].on, self.goal_relations))

    def _goal_ones(self, entry: _Config) -> np.ndarray:
        """The goal columns that are 1 in the rows at `entry` (the rest are 0),
        as flat indices into the entry's matrix, kept per entry in this env's
        own memo."""
        flat = self._goal_cells.get(entry)
        if flat is None:
            sat_before = _satisfied(entry.on, self.goal_relations)
            cells = []
            for row, action in enumerate(entry.actions):
                sat_after = _satisfied(entry.next[action].on, self.goal_relations)
                delta = (sat_after > sat_before) - (sat_after < sat_before)
                ones = [4 + min(sat_after, 4), 10 + delta]
                if delta:
                    ones.append(12 if delta > 0 else 13)
                moved = action.split()[1]
                if any(moved in rel for rel in self.goal_relations):
                    ones.append(15)
                cells += [row * FEATURE_DIM + col for col in ones]
            flat = self._goal_cells[entry] = np.array(cells, np.intp)
        return flat

    def feature_matrix(self, state):
        step, entry = _read(state)
        mat = entry.rows.astype(np.float64)
        mat.put(self._goal_ones(entry), 1.0)
        mat[:, _STEP_COLUMN] = self.step_fraction(step)
        return mat


def _random_config(blocks: list[str], rng) -> dict[str, str]:
    on: dict[str, str] = {}
    tops: list[str] = []
    for block in blocks:
        if not tops or rng.random() < 0.5:
            on[block] = "table"
        else:
            target = tops[int(rng.integers(0, len(tops)))]
            on[block] = target
            tops.remove(target)
        tops.append(block)
    return on


def generate_instances(count: int, seed: int, difficulty: str | None = None) -> list[EnvInstance]:
    """Instances solvable in `difficulty` steps (2, 4, or 6; default 4)."""
    length = int_difficulty("blocksworld", difficulty, (2, 4, 6), "2, 4 or 6") if difficulty else 4
    n_blocks = {2: 3, 4: 4, 6: 5}[length]
    blocks = COLORS[:n_blocks]
    rng = substream(seed, "gen", "blocksworld", length)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 500 * count + 500:
            raise GenerationError("blocksworld instance generation stalled")
        on = _random_config(blocks, rng)
        start = _encode(0, None, on)
        # walk `length` random legal actions to find a reachable goal configuration
        entry = _read(start)[1]
        actions = []
        for _ in range(length):
            act = entry.actions[int(rng.integers(0, len(entry.actions)))]
            actions.append(act)
            entry = entry.next[act]
        stacked = [(b, s) for b, s in entry.on.items() if s != "table"]
        unsatisfied = [(b, s) for b, s in stacked if on.get(b) != s]
        if not unsatisfied:
            continue
        n_rel = min(len(unsatisfied), 1 + int(rng.integers(0, 2)))
        chosen = sorted(unsatisfied)[:n_rel]
        inst = EnvInstance(
            "blocksworld", f"blocksworld-{length}-{seed}-{len(out)}", start,
            _encode_goal(chosen), length, split=f"{length}-step",
        )
        # trim the generating walk at the first state that satisfies the goal
        genv = BlocksWorldEnv(inst)
        gold = []
        s = start
        for act in actions:
            if genv.is_terminal(s):
                break
            gold.append(act)
            s = genv.apply(s, act)
        if not _goal_met(_read(s)[1].on, genv.goal_relations):
            continue
        inst.gold_solutions = ["|".join(gold)]
        out.append(inst)
    return out
