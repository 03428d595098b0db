"""Block-stacking world with pickup/putdown/stack/unstack actions.

A configuration maps each placed block to its support (another block or the
table); at most one block is held. Preconditions follow the classic rules: a
block moves only if clear, pickup/unstack need an empty hand, stacking needs
a clear target. Goals are conjunctions of on-relations. State keys embed the
step index (exact parent mode); parents are enumerated through the four
inverse actions.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import GenerationError, InvalidActionError, StructuralError, TerminalQueryError
from ..rngutil import substream
from .base import EnvInstance, Environment, hashed_features

COLORS = ["blue", "cyan", "orange", "red", "yellow", "violet", "white"]


def _decode(state: str) -> tuple[int, str | None, dict[str, str]]:
    t_part, hand_part, on_part = state.split("|")
    step = int(t_part[2:])
    hand = hand_part[len("hand=") :]
    hand = None if hand == "-" else hand
    on: dict[str, str] = {}
    body = on_part[len("on=") :]
    if body:
        for item in body.split(","):
            block, support = item.split(":")
            on[block] = support
    return step, hand, on


def _encode(step: int, hand: str | None, on: dict[str, str]) -> str:
    body = ",".join(f"{b}:{on[b]}" for b in sorted(on))
    return f"t={step}|hand={hand or '-'}|on={body}"


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


def _clear_blocks(hand: str | None, on: dict[str, str]) -> set[str]:
    supports = set(on.values())
    return {b for b in on if b not in supports}


def _goal_met(on: dict[str, str], relations: list[tuple[str, str]]) -> bool:
    return all(on.get(b) == s for b, s in relations)


def check_physics(state: str) -> None:
    """Raise StructuralError when the block relations are inconsistent."""
    _, hand, on = _decode(state)
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

    _N_HASHED = 32

    def parse_instance(self):
        check_physics(self.s0)
        self.goal_relations = _parse_goal(self.goal)

    def valid_actions(self, state):
        if self.is_terminal(state):
            raise TerminalQueryError(f"state {state!r} is terminal")
        _, hand, on = _decode(state)
        clear = _clear_blocks(hand, on)
        actions = []
        if hand is None:
            for x in sorted(clear):
                if on[x] == "table":
                    actions.append(f"pickup {x}")
                else:
                    actions.append(f"unstack {x} {on[x]}")
        else:
            actions.append(f"putdown {hand}")
            for y in sorted(clear):
                actions.append(f"stack {hand} {y}")
        return actions

    def apply(self, state, action):
        if action not in self.cached_valid_actions(state):
            raise InvalidActionError(f"action {action!r} invalid at {state!r}")
        step, hand, on = _decode(state)
        return _encode(step + 1, *_move(hand, on, action))

    def is_terminal(self, state):
        step, _, on = _decode(state)
        return step >= self.max_steps or _goal_met(on, self.goal_relations)

    def is_success(self, traj):
        _, _, on = _decode(traj.states[-1])
        return _goal_met(on, self.goal_relations)

    def success_term(self, terminal):
        return self.w if _goal_met(_decode(terminal)[2], self.goal_relations) else 0.0

    def edge_term(self, state, action, child):
        return -1.0 / math.log(self.step_score(state, action))

    @property
    def edge_scale(self):
        return self.lam

    def parent_count(self, state):
        step, hand, on = _decode(state)
        if step == 0:
            raise StructuralError("parent count undefined for the initial state")
        parents = []
        if hand is None:
            # last action placed some clear block x (putdown or stack)
            for x in _clear_blocks(hand, on):
                prev_on = dict(on)
                del prev_on[x]
                parents.append(prev_on)
        else:
            # last action lifted `hand` from the table or from a block
            prev_on = dict(on)
            prev_on[hand] = "table"
            parents.append(prev_on)
            for y in _clear_blocks(hand, on):
                prev_on = dict(on)
                prev_on[hand] = y
                parents.append(prev_on)
        count = 0
        for prev_on in parents:
            if not _goal_met(prev_on, self.goal_relations):  # terminal parents have no edges
                count += 1
        if count == 0:
            raise StructuralError(f"state {state!r} has no legal parents")
        return count

    def potential(self, state):
        _, _, on = _decode(state)
        return float(sum(1 for b, s in self.goal_relations if on.get(b) == s))

    @property
    def feature_dim(self):
        # action type(4) + satisfied count(5) + delta(3) + flags(4)
        # + step fraction(1) + bias(1) + hashed
        return 4 + 5 + 3 + 4 + 1 + 1 + self._N_HASHED

    def featurize(self, state, action):
        step, hand, on_before = _decode(state)
        hand_after, on_after = _move(hand, on_before, action)
        sat_before = sum(1 for b, s in self.goal_relations if on_before.get(b) == s)
        sat_after = sum(1 for b, s in self.goal_relations if on_after.get(b) == s)
        moved = action.split()[1]

        vec = np.zeros(self.feature_dim)
        kind = ["pickup", "putdown", "stack", "unstack"].index(action.split()[0])
        vec[kind] = 1.0
        off = 4
        vec[off + min(sat_after, 4)] = 1.0
        off += 5
        vec[off + int(np.sign(sat_after - sat_before)) + 1] = 1.0
        off += 3
        vec[off] = 1.0 if sat_after > sat_before else 0.0
        vec[off + 1] = 1.0 if sat_after < sat_before else 0.0
        vec[off + 2] = 1.0 if hand_after is None else 0.0
        vec[off + 3] = 1.0 if any(moved in rel for rel in self.goal_relations) else 0.0
        off += 4
        vec[off] = (step + 1) / max(self.max_steps, 1)
        vec[off + 1] = 1.0
        off += 2
        vec[off:] = hashed_features(self._N_HASHED, ("bw", state.split("|", 1)[1], action))
        return vec


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
    length = int(difficulty) if difficulty else 4
    if length not in (2, 4, 6):
        raise GenerationError("blocksworld difficulty must be 2, 4 or 6")
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
        # walk `length` random legal actions to find a reachable goal configuration;
        # the probe goal is unsatisfiable so only the step budget terminates it
        probe = EnvInstance("blocksworld", "probe", start, "on=none:never", length)
        env = BlocksWorldEnv(probe)
        state = start
        actions = []
        for _ in range(length):
            opts = env.valid_actions(state)
            act = opts[int(rng.integers(0, len(opts)))]
            actions.append(act)
            state = env.apply(state, act)
        _, _, end_on = _decode(state)
        stacked = [(b, s) for b, s in end_on.items() if s != "table"]
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
        _, _, s_on = _decode(s)
        if not _goal_met(s_on, genv.goal_relations):
            continue
        inst.gold_solutions = ["|".join(gold)]
        out.append(inst)
    return out
