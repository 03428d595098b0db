"""1D grid-transformation puzzles with a fixed ten-function action library.

An instance holds K training input/output grid pairs sharing one underlying
rule; a state is the K current grids (all actions apply to every grid
simultaneously) plus a stop flag. Grids are digit strings with 0 as blank.
The trajectory ends when every grid matches its target, when the step budget
runs out, or when the explicit stop action is chosen.
"""

from __future__ import annotations

import numpy as np

from ..errors import GenerationError, InvalidActionError
from ..rngutil import substream
from .base import EnvInstance, Environment

Grid = list[int]


def _runs(grid: Grid) -> list[tuple[int, int]]:
    """Maximal [start, end) runs of consecutive nonzero cells."""
    runs = []
    i = 0
    while i < len(grid):
        if grid[i] != 0:
            j = i
            while j < len(grid) and grid[j] != 0:
                j += 1
            runs.append((i, j))
            i = j
        else:
            i += 1
    return runs


def shift_left_1(g: Grid) -> Grid:
    return g[1:] + [0] if g else []


def shift_right_1(g: Grid) -> Grid:
    return [0] + g[:-1] if g else []


def fill_enclosed(g: Grid) -> Grid:
    out = list(g)
    i = 0
    while i < len(g):
        if g[i] == 0:
            j = i
            while j < len(g) and g[j] == 0:
                j += 1
            if i > 0 and j < len(g):  # zero run with nonzero neighbors on both sides
                for k in range(i, j):
                    out[k] = g[i - 1]
            i = j
        else:
            i += 1
    return out


def denoise(g: Grid) -> Grid:
    runs = _runs(g)
    if not runs:
        return list(g)
    best = max(runs, key=lambda r: r[1] - r[0])  # leftmost longest wins ties
    out = [0] * len(g)
    out[best[0] : best[1]] = g[best[0] : best[1]]
    return out


def mirror(g: Grid) -> Grid:
    return list(reversed(g))


def recolor_to_majority(g: Grid) -> Grid:
    colors = [c for c in g if c != 0]
    if not colors:
        return list(g)
    counts: dict[int, int] = {}
    for c in colors:
        counts[c] = counts.get(c, 0) + 1
    majority = min(c for c in counts if counts[c] == max(counts.values()))
    return [majority if c != 0 else 0 for c in g]


def extend_left(g: Grid) -> Grid:
    out = list(g)
    for start, _ in _runs(g):
        if start > 0 and g[start - 1] == 0:
            out[start - 1] = g[start]
    return out


def extend_right(g: Grid) -> Grid:
    out = list(g)
    for _, end in _runs(g):
        if end < len(g) and g[end] == 0:
            out[end] = g[end - 1]
    return out


def crop_to_content(g: Grid) -> Grid:
    runs = _runs(g)
    if not runs:
        return list(g)
    return g[runs[0][0] : runs[-1][1]]


TRANSFORMS = {
    "shift_left_1": shift_left_1,
    "shift_right_1": shift_right_1,
    "fill_enclosed": fill_enclosed,
    "denoise": denoise,
    "mirror": mirror,
    "recolor_to_majority": recolor_to_majority,
    "extend_left": extend_left,
    "extend_right": extend_right,
    "crop_to_content": crop_to_content,
    "identity_stop": lambda g: list(g),
}

ACTIONS = list(TRANSFORMS)


def hamming(a: Grid, b: Grid) -> int:
    """Mismatch count, left-aligned, shorter grid padded with blanks."""
    n = max(len(a), len(b))
    pa = a + [0] * (n - len(a))
    pb = b + [0] * (n - len(b))
    return sum(1 for x, y in zip(pa, pb) if x != y)


def _grid_str(g: Grid) -> str:
    return "".join(str(c) for c in g)


def _parse_grids(text: str) -> list[Grid]:
    return [[int(ch) for ch in part] for part in text.split(";")]


class Arc1dEnv(Environment):
    env_id = "arc1d"
    parent_mode = "tree"
    solution_sep = ","
    # action(10) + delta sign(3) + delta magnitude(1) + matched pairs(K+1 up to 4)
    # + stop-when-matched(1) + step fraction(1) + bias(1)
    feature_dim = 10 + 3 + 1 + 4 + 1 + 1 + 1

    def parse_instance(self):
        head, _, body = self.goal.partition("=")
        self.targets = _parse_grids(body)
        if head != "g" or len(self.targets) != len(self._decode(self.s0)[1]):
            raise ValueError("the goal must hold one g= target grid per start grid")

    def _decode(self, state: str) -> tuple[list[str], list[Grid], bool]:
        h_part, g_part, stop_part = state.split("|")
        hist = h_part[len("h=") :]
        actions = hist.split(",") if hist else []
        grids = _parse_grids(g_part[len("g=") :])
        return actions, grids, stop_part == "stop=1"

    def _encode(self, actions: list[str], grids: list[Grid], stopped: bool) -> str:
        return (
            f"h={','.join(actions)}"
            f"|g={';'.join(_grid_str(g) for g in grids)}"
            f"|stop={1 if stopped else 0}"
        )

    def _matched(self, grids: list[Grid]) -> bool:
        return all(hamming(g, t) == 0 for g, t in zip(grids, self.targets))

    def _actions(self, state):
        return list(ACTIONS)

    def apply(self, state, action):
        if action not in TRANSFORMS:
            raise InvalidActionError(f"unknown transform {action!r}")
        hist, grids, stopped = self._decode(state)
        if self.is_terminal(state):
            raise InvalidActionError("cannot transform a terminal state")
        new_grids = [TRANSFORMS[action](g) for g in grids]
        return self._encode(hist + [action], new_grids, action == "identity_stop")

    def is_terminal(self, state):
        hist, grids, stopped = self._decode(state)
        return stopped or len(hist) >= self.max_steps or self._matched(grids)

    def solved(self, terminal):
        return self._matched(self._decode(terminal)[1])

    def reward_step(self, acc, state, child):
        # exp of each grid's hamming drop, added grid by grid
        _, before, _ = self._decode(state)
        _, after, _ = self._decode(child)
        for b, a, target in zip(before, after, self.targets):
            acc += float(np.exp(hamming(b, target) - hamming(a, target)))
        return acc

    def featurize(self, state, action):
        hist, grids, _ = self._decode(state)
        new_grids = [TRANSFORMS[action](g) for g in grids]
        before = sum(hamming(g, t) for g, t in zip(grids, self.targets))
        after = sum(hamming(g, t) for g, t in zip(new_grids, self.targets))
        matched_after = sum(1 for g, t in zip(new_grids, self.targets) if hamming(g, t) == 0)

        vec = np.zeros(self.feature_dim)
        vec[ACTIONS.index(action)] = 1.0
        off = 10
        vec[off + int(np.sign(after - before)) + 1] = 1.0
        off += 3
        vec[off] = float(np.clip(before - after, -5, 5)) / 5.0
        off += 1
        vec[off + min(matched_after, 3)] = 1.0
        off += 4
        vec[off] = 1.0 if action == "identity_stop" and before == 0 else 0.0
        off += 1
        vec[off] = self.step_fraction(len(hist))
        vec[off + 1] = 1.0
        return vec


def _make_pair(kind: str, rng) -> tuple[Grid, Grid]:
    n = int(rng.integers(12, 17))
    color = int(rng.integers(1, 10))
    grid = [0] * n
    if kind == "move":
        length = int(rng.integers(3, 6))
        start = int(rng.integers(1, n - length - 1))
        for i in range(start, start + length):
            grid[i] = color
        target = shift_right_1(grid)
    elif kind == "fill":
        a = int(rng.integers(0, n - 4))
        b = a + int(rng.integers(3, min(6, n - a)))
        grid[a] = grid[b - 1] = color
        target = fill_enclosed(grid)
    else:  # denoise
        length = int(rng.integers(4, 7))
        start = int(rng.integers(0, n - length))
        for i in range(start, start + length):
            grid[i] = color
        free = [
            i
            for i in range(n)
            if grid[i] == 0
            and (i == 0 or grid[i - 1] == 0)
            and (i == n - 1 or grid[i + 1] == 0)
        ]
        n_noise = min(len(free), int(rng.integers(1, 4)))
        picked: list[int] = []
        for idx in rng.permutation(len(free)):
            cand = free[int(idx)]
            if all(abs(cand - p) > 1 for p in picked):
                picked.append(cand)
            if len(picked) == n_noise:
                break
        target = list(grid)
        for i in picked:
            grid[i] = color
    if grid == target:
        raise GenerationError("degenerate pair")
    return grid, target


_FAMILY_GOLD = {"move": "shift_right_1", "fill": "fill_enclosed", "denoise": "denoise"}


def generate_instances(count: int, seed: int, difficulty: str | None = None) -> list[EnvInstance]:
    """K=3 pair instances from the move/fill/denoise families (default mixed)."""
    family = difficulty or "mixed"
    if family not in ("move", "fill", "denoise", "mixed"):
        raise GenerationError(f"unknown arc1d family {family!r}")
    rng = substream(seed, "gen", "arc1d", family)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 100 * count + 100:
            raise GenerationError("arc1d instance generation stalled")
        kind = family if family != "mixed" else ["move", "fill", "denoise"][int(rng.integers(0, 3))]
        try:
            pairs = [_make_pair(kind, rng) for _ in range(3)]
        except GenerationError:
            continue
        inputs = ";".join(_grid_str(g) for g, _ in pairs)
        targets = ";".join(_grid_str(t) for _, t in pairs)
        out.append(
            EnvInstance(
                env_id="arc1d",
                instance_id=f"arc1d-{kind}-{seed}-{len(out)}",
                s0=f"h=|g={inputs}|stop=0",
                goal=f"g={targets}",
                max_steps=4,
                gold_solutions=[_FAMILY_GOLD[kind]],
                split=kind,
            )
        )
    return out
