"""2x2 pocket cube restricted to U/R/F face turns (9 moves).

Corner permutation + orientation representation with the DBL corner fixed,
so the solved configuration is unique (identity permutation, zero twist).
States embed the move count, which layers the graph into a DAG. The 9
inverse moves give 9 distinct predecessors (the group acts freely); parent
counting drops the solved one, which is terminal, so it counts 8 or 9.

Distance-to-solved is breadth-first search from the solved configuration over
a dense table of every reachable configuration, filled lazily one vectorised
layer at a time and kept for the whole process; the diameter is 11 moves.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..errors import GenerationError, InvalidActionError, StructuralError, TerminalQueryError
from ..rngutil import substream
from .base import EnvInstance, Environment, hashed_features

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
SOLVED = bytes(range(8)) + bytes(8)


def apply_move(config: bytes, move: str) -> bytes:
    perm, delta = _MOVE[move]
    cp = bytes(config[perm[i]] for i in range(8))
    co = bytes((config[8 + perm[i]] + delta[i]) % 3 for i in range(8))
    return cp + co


def is_solved(config: bytes) -> bool:
    return config == SOLVED


_ONE_MOVE = frozenset(apply_move(SOLVED, m) for m in MOVES)


# The 3,674,160 configurations reachable from SOLVED keep DBL in slot 6 untwisted
# and their twists sum to 0 mod 3. Dense index: 729 * rank of the permutation of
# the other 7 corners + base-3 rank of the twists of slots 0-5.
_PERM_INDEX: dict[bytes, int] = {}  # config[:8] -> 729 * permutation rank
_TWIST_INDEX: dict[bytes, int] = {}  # config[8:] -> twist rank
_DIST_BYTES = b""  # bytes copy of _dist for cheap lookups, refreshed per layer
_dist = _perm_moves = _twist_moves = None
_depth = 0


def _build_tables() -> None:
    global _dist, _perm_moves, _twist_moves, _DIST_BYTES
    others = itertools.permutations((0, 1, 2, 3, 4, 5, 7))
    perms = np.array([p[:6] + (6,) + p[6:] for p in others], np.uint8)
    slots = itertools.product(range(3), repeat=6)
    twists = np.array([t + (0, -sum(t) % 3) for t in slots], np.uint8)  # sum 0 mod 3
    weights = 8 ** np.arange(7, -1, -1)  # base-8 codes sort like lexicographic permutations
    moves = [_MOVE[m] for m in MOVES]
    _perm_moves = np.array([729 * np.searchsorted(perms @ weights, perms[:, p] @ weights)
                            for p, _ in moves], np.int32)
    _twist_moves = np.array([(twists[:, p[:6]] + d[:6]) % 3 @ 3 ** np.arange(5, -1, -1)
                             for p, d in moves], np.int32)
    _PERM_INDEX.update({bytes(p): 729 * r for r, p in enumerate(perms)})
    _TWIST_INDEX.update({bytes(t): r for r, t in enumerate(twists)})
    _dist = np.full(5040 * 729, 255, np.uint8)  # 255: not reached yet
    _dist[0] = 0  # SOLVED: identity permutation, zero twist
    _DIST_BYTES = _dist.tobytes()


def _grow() -> None:
    """Mark the next BFS layer: every unseen one-move neighbour of the current one."""
    global _depth, _DIST_BYTES
    perm, twist = np.divmod(np.flatnonzero(_dist == _depth), 729)
    _depth += 1
    for perm_move, twist_move in zip(_perm_moves, _twist_moves):  # per move: bounds peak memory
        nbrs = perm_move[perm] + twist_move[twist]
        _dist[nbrs[_dist[nbrs] == 255]] = _depth
    _DIST_BYTES = _dist.tobytes()


def distance_to_solved(config: bytes) -> int:
    """Minimum URF-move count to solve `config`; at most DIST_CAP, the diameter.

    Raises StructuralError for a configuration no move sequence reaches."""
    try:
        index = _PERM_INDEX[config[:8]] + _TWIST_INDEX[config[8:]]
    except KeyError:
        if _PERM_INDEX:
            text = "|".join("".join(map(str, part)) for part in (config[:8], config[8:]))
            raise StructuralError(f"cube configuration {text} is unreachable") from None
        _build_tables()
        return distance_to_solved(config)
    d = _DIST_BYTES[index]
    while d == 255:  # not reached yet; ends by depth DIST_CAP, the diameter
        _grow()
        d = _DIST_BYTES[index]
    return d


def _encode(step: int, config: bytes) -> str:
    cp = "".join(str(c) for c in config[:8])
    co = "".join(str(c) for c in config[8:])
    return f"t={step}|{cp}|{co}"


def _decode(state: str) -> tuple[int, bytes]:
    t_part, cp, co = state.split("|")
    config = bytes(int(c) for c in cp) + bytes(int(c) for c in co)
    return int(t_part[2:]), config


class Cube2x2Env(Environment):
    env_id = "cube2x2"
    parent_mode = "exact"
    solution_sep = " "

    _N_HASHED = 32

    def parse_instance(self):
        self._decoded: dict[str, tuple[int, bytes]] = {}
        self._distances: dict[str, int] = {}
        self._distance(self.s0)  # raises StructuralError for an unreachable start

    def _step_config(self, state):
        """(step, config) of `state`, decoded once per state."""
        pair = self._decoded.get(state)
        if pair is None:
            pair = self._decoded[state] = _decode(state)
        return pair

    def valid_actions(self, state):
        if self.is_terminal(state):
            raise TerminalQueryError(f"state {state!r} is terminal")
        return list(MOVES)

    def apply(self, state, action):
        if action not in _MOVE:
            raise InvalidActionError(f"unknown cube move {action!r}")
        step, config = self._step_config(state)
        if self.is_terminal(state):
            raise InvalidActionError("cannot move from a terminal state")
        return _encode(step + 1, apply_move(config, action))

    def is_terminal(self, state):
        step, config = self._step_config(state)
        return is_solved(config) or step >= self.max_steps

    def is_success(self, traj):
        _, config = self._step_config(traj.states[-1])
        return is_solved(config)

    def _distance(self, state):
        """Distance to solved of `state`, looked up once per state."""
        d = self._distances.get(state)
        if d is None:
            d = self._distances[state] = distance_to_solved(self._step_config(state)[1])
        return d

    def success_term(self, terminal):
        return self.w if self._distance(terminal) == 0 else 0.0

    def edge_term(self, state, action, child):
        return float(np.exp(self._distance(state) - self._distance(child)))

    def parent_count(self, state):
        step, config = self._step_config(state)
        if step == 0:
            raise StructuralError("parent count undefined for the initial state")
        # the 9 inverse moves give 9 distinct predecessors; a solved one is terminal,
        # so no edge, and exactly one is solved when `config` is one move from solved
        return 8 if config in _ONE_MOVE else 9

    @property
    def feature_dim(self):
        # action(9) + solved-after(1) + placed/oriented/fully-correct counts(27)
        # + step fraction(1) + bias(1) + hashed
        return 9 + 1 + 27 + 1 + 1 + self._N_HASHED

    def featurize(self, state, action):
        step, config = self._step_config(state)
        nxt = apply_move(config, action)
        placed = sum(1 for i in range(8) if nxt[i] == i)
        oriented = sum(1 for i in range(8) if nxt[8 + i] == 0)
        correct = sum(1 for i in range(8) if nxt[i] == i and nxt[8 + i] == 0)
        vec = np.zeros(self.feature_dim)
        vec[MOVES.index(action)] = 1.0
        off = 9
        if is_solved(nxt):
            vec[off] = 1.0
        off += 1
        vec[off + min(placed, 8)] = 1.0
        vec[off + 9 + min(oriented, 8)] = 1.0
        vec[off + 18 + min(correct, 8)] = 1.0
        off += 27
        vec[off] = (step + 1) / max(self.max_steps, 1)
        vec[off + 1] = 1.0
        off += 2
        vec[off:] = hashed_features(self._N_HASHED, ("cube", state.split("|", 1)[1], action))
        return vec


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
        s0=_encode(0, config),
        goal="solved",
        max_steps=max_steps,
        gold_solutions=[" ".join(inverse_seq)],
        split=split,
    )


def generate_instances(count: int, seed: int, difficulty: str | None = None) -> list[EnvInstance]:
    """Scrambles of 1..4 moves; difficulty "k" pins the scramble length."""
    fixed_len = None
    if difficulty and difficulty != "mixed":
        fixed_len = int(difficulty)
        if not 1 <= fixed_len <= 4:
            raise GenerationError("cube scramble length must be in 1..4")
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
