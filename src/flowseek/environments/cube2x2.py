"""2x2 pocket cube restricted to U/R/F face turns (9 moves).

Corner permutation + orientation representation with the DBL corner fixed,
so the solved configuration is unique (identity permutation, zero twist).
States embed the move count, which layers the graph into a DAG. The 9
inverse moves give 9 distinct predecessors (the group acts freely); parent
counting drops the solved one, which is terminal, so it counts 8 or 9.

A state key stays the digit string `t=<step>|<8 permutation digits>|<8 twist
digits>`, so instance files, feature hashes and checkpoints read as before.
Inside, an env reads each key once into (step, permutation rank, twist rank)
on a dense index of every reachable configuration, built once per process.
Moves, terminal tests, distances and the placed/oriented counts are then
reads of per-rank tables, and a child's key joins its ranks' digit strings.
The feature rows of a configuration's 9 moves, without the step column, are
kept per dense index for the whole process as an int8 template, filled from
the rank tables (and hashed) on first read; the step fraction is written per
call.

Distance-to-solved is breadth-first search from the solved configuration over
the dense index, filled lazily one vectorised layer at a time and kept for
the whole process; the diameter is 11 moves.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..errors import GenerationError, InvalidActionError, StructuralError, TerminalQueryError
from ..rngutil import substream
from .base import EnvInstance, Environment, bounded_put, hash_slot, int_difficulty

# corner indices: 0 URF, 1 UFL, 2 ULB, 3 UBR, 4 DFR, 5 DLF, 6 DBL, 7 DRB
_BASE = {
    "U": ((3, 0, 1, 2, 4, 5, 6, 7), (0, 0, 0, 0, 0, 0, 0, 0)),
    "R": ((4, 1, 2, 0, 7, 5, 6, 3), (2, 0, 0, 1, 1, 0, 0, 2)),
    "F": ((1, 5, 2, 3, 0, 4, 6, 7), (1, 2, 0, 0, 2, 1, 0, 0)),
}

MOVES = ["U", "U'", "U2", "R", "R'", "R2", "F", "F'", "F2"]
INVERSE = {"U": "U'", "U'": "U", "U2": "U2", "R": "R'", "R'": "R", "R2": "R2",
           "F": "F'", "F'": "F", "F2": "F2"}
DIST_CAP = 11


def _compose(a, b):
    """Permutation/twist of applying move a then move b."""
    acp, aco = a
    bcp, bco = b
    cp = tuple(acp[bcp[i]] for i in range(8))
    co = tuple((aco[bcp[i]] + bco[i]) % 3 for i in range(8))
    return cp, co


def _build_move_table() -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
    table = {}
    for face, m1 in _BASE.items():
        m2 = _compose(m1, m1)
        m3 = _compose(m2, m1)
        table[face] = m1
        table[face + "2"] = m2
        table[face + "'"] = m3
    return table


_MOVE = _build_move_table()
_MOVE_INDEX = {move: m for m, move in enumerate(MOVES)}
SOLVED = bytes(range(8)) + bytes(8)


def apply_move(config: bytes, move: str) -> bytes:
    perm, delta = _MOVE[move]
    cp = bytes(config[perm[i]] for i in range(8))
    co = bytes((config[8 + perm[i]] + delta[i]) % 3 for i in range(8))
    return cp + co


def is_solved(config: bytes) -> bool:
    return config == SOLVED


def _digits(config: bytes) -> str:
    """`<8 permutation digits>|<8 twist digits>`, the configuration part of a state key."""
    return "|".join("".join(map(str, part)) for part in (config[:8], config[8:]))


# The 3,674,160 configurations reachable from SOLVED keep DBL in slot 6 untwisted
# and their twists sum to 0 mod 3. Dense index: 729 * rank of the permutation of
# the other 7 corners + base-3 rank of the twists of slots 0-5; SOLVED is rank 0, 0.
_PERM_RANK: dict[str, int] = {}  # 8 permutation digits -> permutation rank
_TWIST_RANK: dict[str, int] = {}  # 8 twist digits -> twist rank
_PERM_DIGITS: list[str] = []  # permutation rank -> its 8 digits
_TWIST_DIGITS: list[str] = []  # twist rank -> its 8 digits
# per move index, rank -> rank after the move: list copies, as scalar numpy reads are slow
_PERM_NEXT: list[list[int]] = []
_TWIST_NEXT: list[list[int]] = []
_PLACED: list[int] = []  # permutation rank -> bitmask of the corners in their home slot
_ORIENTED: list[int] = []  # twist rank -> bitmask of the untwisted corners
_ONE_MOVE: frozenset[int] = frozenset()  # dense indices one move from SOLVED
_dist = _perm_moves = _twist_moves = None
_DIST_VIEW = None  # memoryview of _dist: its scalar reads are cheaper than numpy's
_depth = 0


def _digit_rows(rows: np.ndarray) -> list[str]:
    """Each row of single digits as one string."""
    text = (rows + ord("0")).tobytes().decode()
    width = rows.shape[1]
    return [text[i:i + width] for i in range(0, len(text), width)]


def _build_tables() -> None:
    global _dist, _perm_moves, _twist_moves, _DIST_VIEW, _PERM_RANK, _TWIST_RANK
    global _PERM_DIGITS, _TWIST_DIGITS, _PERM_NEXT, _TWIST_NEXT, _PLACED, _ORIENTED, _ONE_MOVE
    others = itertools.permutations((0, 1, 2, 3, 4, 5, 7))
    perms = np.array([p[:6] + (6,) + p[6:] for p in others], np.uint8)
    slots = itertools.product(range(3), repeat=6)
    twists = np.array([t + (0, -sum(t) % 3) for t in slots], np.uint8)  # sum 0 mod 3
    weights = 8 ** np.arange(7, -1, -1)  # base-8 codes sort like lexicographic permutations
    moves = [_MOVE[m] for m in MOVES]
    perm_next = np.array([np.searchsorted(perms @ weights, perms[:, p] @ weights)
                          for p, _ in moves], np.int32)
    _perm_moves = 729 * perm_next
    _twist_moves = np.array([(twists[:, p[:6]] + d[:6]) % 3 @ 3 ** np.arange(5, -1, -1)
                             for p, d in moves], np.int32)
    ranks = list(range(5040))  # one int object per rank, shared by every table below
    _PERM_NEXT = [list(map(ranks.__getitem__, row)) for row in perm_next.tolist()]
    _TWIST_NEXT = [list(map(ranks.__getitem__, row)) for row in _twist_moves.tolist()]
    bits = 1 << np.arange(8)
    _PLACED = ((perms == np.arange(8)) @ bits).tolist()
    _ORIENTED = ((twists == 0) @ bits).tolist()
    _PERM_DIGITS, _TWIST_DIGITS = _digit_rows(perms), _digit_rows(twists)
    _PERM_RANK = dict(zip(_PERM_DIGITS, ranks))
    _TWIST_RANK = dict(zip(_TWIST_DIGITS, ranks))
    _ONE_MOVE = frozenset(729 * p[0] + t[0] for p, t in zip(_PERM_NEXT, _TWIST_NEXT))
    _dist = np.full(5040 * 729, 255, np.uint8)  # 255: not reached yet
    _dist[0] = 0  # SOLVED: identity permutation, zero twist
    _DIST_VIEW = memoryview(_dist)


def _grow() -> None:
    """Mark the next BFS layer: every unseen one-move neighbour of the current one."""
    global _depth
    perm, twist = np.divmod(np.flatnonzero(_dist == _depth), 729)
    _depth += 1
    for perm_move, twist_move in zip(_perm_moves, _twist_moves):  # per move: bounds peak memory
        nbrs = perm_move[perm] + twist_move[twist]
        _dist[nbrs[_dist[nbrs] == 255]] = _depth


def _distance_at(index: int) -> int:
    """Distance to solved of the configuration at dense `index`."""
    d = _DIST_VIEW[index]
    while d == 255:  # not reached yet; ends by depth DIST_CAP, the diameter
        _grow()
        d = _DIST_VIEW[index]
    return d


def distance_to_solved(config: bytes) -> int:
    """Minimum URF-move count to solve `config`; at most DIST_CAP, the diameter.

    Raises StructuralError for a configuration no move sequence reaches."""
    if not _PERM_RANK:
        _build_tables()
    text = _digits(config)
    cp, co = text.split("|")
    if cp not in _PERM_RANK or co not in _TWIST_RANK:
        raise StructuralError(f"cube configuration {text} is unreachable")
    return _distance_at(729 * _PERM_RANK[cp] + _TWIST_RANK[co])


# feature columns: action(9) + solved-after(1) + placed/oriented/fully-correct
# counts(27) + step fraction(1) + bias(1) + hashed
_STEP_COLUMN = 37  # the step fraction, the only column that reads more than the configuration
_HASHED = 39
_N_HASHED = 32  # the width of a feature row's hashed slice
FEATURE_DIM = _HASHED + _N_HASHED

# dense index -> the int8 feature rows of the 9 moves in MOVES order, with the
# step column 0, for the whole process. Past CODE_ENTRIES the oldest goes (a
# later read fills it again)
_ROWS: dict[int, np.ndarray] = {}
CODE_ENTRIES = 65536


def _rows_at(index: int) -> np.ndarray:
    """The feature rows at dense `index`, filled on a miss; callers must not change them.

    A row sets its move, the solved flag and the placed, oriented and
    fully-correct counts after the move, and the bias, and adds the signed
    hash of `("cube", configuration text, move)`."""
    rows = _ROWS.get(index)
    if rows is None:
        p, t = divmod(index, 729)
        text = f"{_PERM_DIGITS[p]}|{_TWIST_DIGITS[t]}"
        rows = np.zeros((len(MOVES), FEATURE_DIM), np.int8)
        for m, move in enumerate(MOVES):
            after_p, after_t = _PERM_NEXT[m][p], _TWIST_NEXT[m][t]
            placed, oriented = _PLACED[after_p], _ORIENTED[after_t]
            rows[m, [m, 10 + placed.bit_count(), 19 + oriented.bit_count(),
                     28 + (placed & oriented).bit_count(), 38]] = 1  # 38: the bias
            rows[m, 9] = not (after_p or after_t)
            idx, sign = hash_slot(_N_HASHED, ("cube", text, move))
            rows[m, _HASHED + idx] = sign
        bounded_put(_ROWS, index, rows, CODE_ENTRIES)
    return rows


# exp of every distance drop a reward can hold, as np.exp gives it
_EXP_DROP = {k: float(np.exp(k)) for k in range(-DIST_CAP, DIST_CAP + 1)}


class Cube2x2Env(Environment):
    env_id = "cube2x2"
    parent_mode = "exact"
    solution_sep = " "

    def parse_instance(self):
        self._ranks: dict[str, tuple[int, int, int]] = {}
        _, cp, co = self.s0.split("|")
        # raises StructuralError for an unreachable start
        distance_to_solved(bytes(int(c) for c in cp + co))
        step, p, t = self._ranks_of(self.s0)
        if step != 0:
            raise StructuralError(f"the start is at step {step}, not 0")
        if not (p or t):
            raise StructuralError("the start is already solved")

    def _ranks_of(self, state):
        """(step, permutation rank, twist rank) of `state`, parsed once per state."""
        ranks = self._ranks.get(state)
        if ranks is None:
            t_part, cp, co = state.split("|")
            ranks = self._ranks[state] = (int(t_part[2:]), _PERM_RANK[cp], _TWIST_RANK[co])
        return ranks

    def valid_actions(self, state):
        if self.is_terminal(state):
            raise TerminalQueryError(f"state {state!r} is terminal")
        return list(MOVES)

    def apply(self, state, action):
        m = _MOVE_INDEX.get(action)
        if m is None:
            raise InvalidActionError(f"unknown cube move {action!r}")
        step, p, t = self._ranks_of(state)
        if self.is_terminal(state):
            raise InvalidActionError("cannot move from a terminal state")
        p, t = _PERM_NEXT[m][p], _TWIST_NEXT[m][t]
        child = f"t={step + 1}|{_PERM_DIGITS[p]}|{_TWIST_DIGITS[t]}"
        self._ranks[child] = (step + 1, p, t)
        return child

    def is_terminal(self, state):
        step, p, t = self._ranks_of(state)
        return not (p or t) or step >= self.max_steps

    def is_success(self, traj):
        _, p, t = self._ranks_of(traj.states[-1])
        return not (p or t)

    def _distance(self, state):
        _, p, t = self._ranks_of(state)
        return _distance_at(729 * p + t)

    def success_term(self, terminal):
        _, p, t = self._ranks_of(terminal)
        return 0.0 if p or t else self.w

    def edge_term(self, state, action, child):
        return _EXP_DROP[self._distance(state) - self._distance(child)]

    def parent_count(self, state):
        step, p, t = self._ranks_of(state)
        if step == 0:
            raise StructuralError("parent count undefined for the initial state")
        # the 9 inverse moves give 9 distinct predecessors; a solved one is terminal,
        # so no edge, and exactly one is solved when `state` is one move from solved
        return 8 if 729 * p + t in _ONE_MOVE else 9

    @property
    def feature_dim(self):
        return FEATURE_DIM

    def feature_matrix(self, state):
        step, p, t = self._ranks_of(state)
        mat = _rows_at(729 * p + t).astype(np.float64)
        mat[:, _STEP_COLUMN] = self.step_fraction(step)
        return mat


def scramble_instance(moves: list[str], instance_id: str, max_steps: int = DIST_CAP,
                      split: str = "default") -> EnvInstance:
    config = SOLVED
    for m in moves:
        config = apply_move(config, m)
    if is_solved(config):
        raise GenerationError(f"scramble {moves} returns to the solved state")
    inverse_seq = [INVERSE[m] for m in reversed(moves)]
    return EnvInstance(
        env_id="cube2x2",
        instance_id=instance_id,
        s0=f"t=0|{_digits(config)}",
        goal="solved",
        max_steps=max_steps,
        gold_solutions=[" ".join(inverse_seq)],
        split=split,
    )


def generate_instances(count: int, seed: int, difficulty: str | None = None) -> list[EnvInstance]:
    """Scrambles of 1..4 moves; difficulty "k" pins the scramble length."""
    fixed_len = None
    if difficulty and difficulty != "mixed":
        fixed_len = int_difficulty("cube2x2", difficulty, range(1, 5),
                                   "a scramble length 1..4 or 'mixed'")
    rng = substream(seed, "gen", "cube2x2", difficulty or "")
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 100 * count + 100:
            raise GenerationError("cube instance generation stalled")
        k = fixed_len if fixed_len else int(rng.integers(1, 5))
        moves = []
        while len(moves) < k:
            m = MOVES[int(rng.integers(0, 9))]
            if moves and moves[-1][0] == m[0]:  # avoid same-face cancellation
                continue
            moves.append(m)
        try:
            out.append(scramble_instance(moves, f"cube2x2-{seed}-{len(out)}"))
        except GenerationError:
            continue
    return out
