"""Common environment interface and shared reward plumbing.

An environment object is bound to one problem instance (initial state, goal,
step budget) and is immutable after construction. State keys are canonical
strings; in tree mode they embed the full action history so every state has
exactly one parent, while exact mode embeds the step index and counts parents
by inverse-action enumeration.

A reward is one float, floored at the env's `reward_floor`. Only the game24
and blocksworld rewards read a per-step probability, `step_score`, standing
in for the likelihood model their formulas expect. The env's `scorer` names
its function in `SCORERS`: `uniform` (p = 1 / |valid actions|) or `progress`
(logistic in the change of the env's `potential` from a state to its child).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import (EnumerationCapError, FlowseekError, GenerationError, NotASolutionError,
                      ScorerContractError, StructuralError, TerminalQueryError)

REWARD_FLOOR = 1e-8
DEFAULT_SUCCESS_WEIGHT = 100.0
DEFAULT_INTERMEDIATE_WEIGHT = 1.5

P_SCORE_MIN = 1e-6
P_SCORE_MAX = 1.0 - 1e-6


@dataclass
class EnvInstance:
    """One problem: initial state, goal, optional gold solutions, step budget."""

    env_id: str
    instance_id: str
    s0: str
    goal: str
    max_steps: int
    gold_solutions: list[str] | None = None
    split: str = "default"

    def to_record(self) -> dict:
        rec = {
            "env_id": self.env_id,
            "instance_id": self.instance_id,
            "s0": self.s0,
            "goal": self.goal,
            "max_steps": self.max_steps,
            "split": self.split,
        }
        if self.gold_solutions is not None:
            rec["gold_solutions"] = self.gold_solutions
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "EnvInstance":
        return cls(
            env_id=rec["env_id"],
            instance_id=rec["instance_id"],
            s0=rec["s0"],
            goal=rec["goal"],
            max_steps=int(rec["max_steps"]),
            gold_solutions=rec.get("gold_solutions"),
            split=rec.get("split", "default"),
        )


STRING_FIELDS = ("env_id", "instance_id", "s0", "goal")


def write_instances(path, instances: list[EnvInstance]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for inst in instances:
            f.write(json.dumps(inst.to_record(), sort_keys=True))
            f.write("\n")


def read_instances(path) -> list[EnvInstance]:
    """The instances of a JSONL file; a line that is no instance record, or
    repeats an earlier line's `instance_id`, raises FlowseekError (envs are
    keyed by id)."""
    out = []
    lines: dict[str, int] = {}  # instance_id -> the line it was read from
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                if not all(isinstance(rec[k], str) for k in STRING_FIELDS):
                    raise TypeError(f"{', '.join(STRING_FIELDS)} must be strings")
                inst = EnvInstance.from_record(rec)
            except (KeyError, TypeError, ValueError) as exc:
                raise FlowseekError(
                    f"{path}: line {lineno}: not an instance record ({exc!r})"
                ) from None
            first = lines.setdefault(inst.instance_id, lineno)
            if first != lineno:
                raise FlowseekError(
                    f"{path}: line {lineno}: instance_id {inst.instance_id!r} "
                    f"is already on line {first}"
                )
            out.append(inst)
    return out


def uniform_score(env: "Environment", state: str, child: str) -> float:
    """p = 1 / |valid actions at state|."""
    n = len(env.cached_valid_actions(state))
    # a single-action state would give p = 1; the clamp keeps log p finite
    return 1.0 / n if n > 1 else P_SCORE_MAX


def progress_score(env: "Environment", state: str, child: str) -> float:
    """Logistic in the potential improvement of the step from `state` to `child`."""
    # past +-30 the logistic is already clamped to P_SCORE_MIN/MAX; clipping
    # keeps exp finite and p strictly inside (0, 1) for any step
    delta = min(max(env.potential(child) - env.potential(state), -30.0), 30.0)
    return 1.0 / (1.0 + math.exp(-delta))


SCORERS = {"uniform": uniform_score, "progress": progress_score}


class Dag(NamedTuple):
    """An instance's states and edges on dense ids, from `Environment.dag`.

    `states` is in topological order: a state's id is its index, and s0 is 0.
    State i's edges, in `cached_valid_actions` order, are `offsets[i]` up to
    `offsets[i + 1]` of `child` (ids); an env is deterministic, so a child
    names its action. A state without edges is terminal. `parents[i]` is the
    |Pa| of the uniform P_B: 1 in tree mode and for s0, else
    `cached_parent_count`, read once per state after the walk."""

    states: list[str]
    offsets: list[int]
    child: list[int]
    parents: list[int]
    n_trajectories: int


class Environment:
    """Interface every concrete environment implements.

    Subclasses set `env_id` and `parent_mode` ("tree" or "exact") and bind to
    one EnvInstance. All methods are pure. `valid_actions` raises
    `TerminalQueryError` at a terminal and otherwise returns the subclass's
    `_actions(state)`; game24 overrides it to read both facts off one decode
    entry. `children` lists a state's edges through `apply`; game24,
    blocksworld and cube2x2 override it to decode the state once and build
    each child key from the decode. Only exact-mode subclasses define
    `parent_count`: a tree-mode state has one parent, and nothing asks.

    A reward is a fold along the trajectory: it starts at `reward_start`,
    `reward_step(acc, state, child)` takes each transition in path order,
    and `reward_finish(acc, terminal)` turns the result into the floored
    reward. `reward` runs the fold over a trajectory, and the oracle carries
    it state by state, so a shared prefix is folded once. The default fold
    is edge-decomposed: `success_term(terminal)` plus `edge_scale` times the
    sum of `edge_term(state, child)`. No hook reads an action: an env is
    deterministic, so a state and its child name the step. By default
    `success_term` is `w` where the `solved(terminal)` hook holds and 0
    elsewhere, and `is_success` reads the same hook. Exact-mode subclasses
    supply both terms, which the oracle reads edge by edge.
    Tree-mode subclasses whose reward is no edge sum state their own fold
    (game24 a product, arc1d a sum over grids, logicchain a hit count). A
    subclass whose reward reads `step_score` sets `reads_scorer` and defines
    `potential(state)`, the `progress` scorer's estimate (higher is better).

    `decision_key(state)` names the decision point a state stands for. The
    contract: two states with the same key have the same valid actions and
    the same feature rows, so `cached_valid_actions`, the row cache and the
    oracle's per-state policy cache key on it. The default is the state
    itself; game24 drops the equation history, because its actions and
    features depend only on the numbers left. `TabularEnv` keys on the full
    state again: its one-hot rows index the state itself, so the wrapped
    env's coarser key would merge rows that differ.

    `feature_matrix` returns a fresh float matrix of the decision point's
    rows. By default it copies the rows that `featurize` built for this env,
    kept per `decision_key` in the env's own bounded cache (arc1d,
    logicchain and toydag, whose rows read the instance). game24, cube2x2
    and blocksworld define no `featurize`: their `feature_matrix` widens an
    int8 row template kept on the process-wide table entry of the decision
    point, filled on first read from the entry's facts, and writes the step
    (and goal) columns per call. The tabular wrapper builds its one-hot rows
    on every call and keeps none.
    """

    env_id: str = "base"
    parent_mode: str = "tree"
    solution_sep: str = "|"  # joins a successful trajectory's actions into its solution key
    reads_scorer: bool = False
    reads_lambda: bool = False  # whether `edge_scale` is the `intermediate_weight` setting
    reward_start = 0.0  # the reward fold's value before the first edge

    def __init__(
        self,
        instance: EnvInstance,
        scorer: str = "uniform",
        success_weight: float = DEFAULT_SUCCESS_WEIGHT,
        intermediate_weight: float = DEFAULT_INTERMEDIATE_WEIGHT,
        reward_floor: float = REWARD_FLOOR,
    ):
        if scorer not in SCORERS:
            raise ValueError(f"unknown scorer {scorer!r}")
        self.instance = instance
        self.scorer = scorer
        self.w = success_weight
        self.lam = intermediate_weight
        self.reward_floor = reward_floor
        self._valid_cache: dict[str, list[str]] = {}
        self._rows: dict[str, np.ndarray] = {}  # see `feature_matrix`
        self._uniform_scores: dict[str, float] = {}
        self._dag: Dag | None = None  # see `dag`
        self._parent_count_cache: dict[str, int] = {}
        try:
            self.parse_instance()
        except StructuralError as exc:  # a well-formed but impossible start
            raise StructuralError(f"instance {instance.instance_id}: {exc}") from None
        except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
            raise StructuralError(
                f"instance {instance.instance_id}: malformed {self.env_id} s0 or goal ({exc!r})"
            ) from None

    @property
    def s0(self) -> str:
        return self.instance.s0

    @property
    def goal(self) -> str:
        return self.instance.goal

    @property
    def max_steps(self) -> int:
        return self.instance.max_steps

    # -- interface -----------------------------------------------------------

    def parse_instance(self) -> None:
        """Set what `s0` and `goal` decode to, once; a lookup, type, value or
        arithmetic error raised here marks the instance as malformed."""

    def valid_actions(self, state: str) -> list[str]:
        """The actions at `state`; a terminal state raises TerminalQueryError."""
        if self.is_terminal(state):
            raise TerminalQueryError(f"state {state!r} is terminal")
        return self._actions(state)

    def _actions(self, state: str) -> list[str]:
        """The actions at `state`, which `valid_actions` has found non-terminal."""
        raise NotImplementedError

    def apply(self, state: str, action: str) -> str:
        raise NotImplementedError

    def is_terminal(self, state: str) -> bool:
        raise NotImplementedError

    def is_success(self, traj) -> bool:
        return self.solved(traj.states[-1])

    def solved(self, terminal: str) -> bool:
        """Whether `terminal` meets the instance's goal."""
        raise NotImplementedError

    def reward(self, traj) -> float:
        """The reward fold over the trajectory's transitions, finished at its last state."""
        states = traj.states
        acc = self.reward_start
        for state, child in zip(states, states[1:]):
            acc = self.reward_step(acc, state, child)
        return self.reward_finish(acc, states[-1])

    def reward_step(self, acc, state: str, child: str):
        """The fold after one more edge; by default the running sum of edge terms."""
        return acc + self.edge_term(state, child)

    def reward_finish(self, acc, terminal: str) -> float:
        """The floored reward from the folded edges; by default `success_term`
        plus `edge_scale` times the edge sum."""
        return self.floored(self.success_term(terminal), self.edge_scale * acc)

    def success_term(self, terminal: str) -> float:
        """The reward's terminal part under the default `reward_finish`."""
        return self.w if self.solved(terminal) else 0.0

    def edge_term(self, state: str, child: str) -> float:
        """The step's share of the default fold's edge sum, before `edge_scale`."""
        raise NotImplementedError

    @property
    def edge_scale(self) -> float:
        """Factor on the summed edge terms (blocksworld's lambda)."""
        return 1.0

    def solution_key(self, traj) -> str:
        if not (traj.is_complete and self.is_success(traj)):
            raise NotASolutionError("solution keys exist only for successful trajectories")
        return self.solution_sep.join(traj.actions)

    def featurize(self, state: str, action: str) -> np.ndarray:
        raise NotImplementedError

    @property
    def feature_dim(self) -> int:
        raise NotImplementedError

    def step_fraction(self, step: int) -> float:
        """The feature column that marks how far into its budget step `step` is."""
        return (step + 1) / max(self.max_steps, 1)

    # -- cached lookups (features and action sets are parameter-independent) ----

    def decision_key(self, state: str) -> str:
        """Cache key shared by every state with the same actions and feature rows."""
        return state

    def cached_valid_actions(self, state: str) -> list[str]:
        key = self.decision_key(state)
        actions = self._valid_cache.get(key)
        if actions is None:
            actions = self.valid_actions(state)
            self._valid_cache[key] = actions
        return actions

    def feature_matrix(self, state: str) -> np.ndarray:
        """One feature row per action of `cached_valid_actions(state)`, in its order.

        A fresh matrix on every call: callers may keep or change it."""
        key = self.decision_key(state)
        rows = self._rows.get(key)
        if rows is None:
            rows = np.array([self.featurize(state, a) for a in self.cached_valid_actions(state)])
            bounded_put(self._rows, key, rows, FEATURE_CACHE_STATES)
        return rows.astype(np.float64)

    def parent_count(self, state: str) -> int:
        raise NotImplementedError

    # -- the instance DAG, walked once per env -----------------------------------

    def children(self, state: str) -> list[tuple[str, str]] | None:
        """`(action, child)` per action of `cached_valid_actions`, in its order; None if terminal.

        Uncached: `dag` keeps the edges of its one walk. game24, blocksworld
        and cube2x2 override it with the same list, built from one decode of
        the state and no `apply` call; an override leaves
        `cached_valid_actions` filled for each state it expands, as this one
        does."""
        if self.is_terminal(state):
            return None
        return [(a, self.apply(state, a)) for a in self.cached_valid_actions(state)]

    def dag(self, cap: int) -> Dag:
        """The states reachable from s0 on dense ids, their edges and the trajectory count.

        Walked once per env, depth first over `children`; reversed finishing
        order is topological. The walk counts each complete trajectory once,
        through the states finished so far, and raises `EnumerationCapError`
        with partial count cap + 1 as soon as that count passes `cap`, without
        expanding the rest. A walk stopped at its cap stores nothing, and a
        stored count above a later, smaller `cap` raises the same way."""
        if self._dag is None:
            self._dag = self._walk(cap)
        if self._dag.n_trajectories > cap:
            raise _cap_error(cap)
        return self._dag

    def _walk(self, cap: int) -> Dag:
        kids = self.children(self.s0)
        if kids is None:
            return Dag([self.s0], [0, 0], [], [1], 1)
        expanded = {self.s0: kids}  # state -> its children, None if terminal
        paths: dict[str, int] = {}  # finished state -> trajectories from it to a terminal
        finished: list[str] = []
        found = 0
        stack = [[self.s0, kids, 0, 0]]  # state, children, next child, paths found below
        while stack:
            frame = stack[-1]
            state, kids, i, below = frame
            if i == len(kids):
                stack.pop()
                paths[state] = below
                finished.append(state)
                if stack:
                    stack[-1][3] += below
                continue
            frame[2] = i + 1
            child = kids[i][1]
            n = paths.get(child)
            if n is None:
                grandkids = expanded[child] = self.children(child)
                if grandkids is not None:
                    stack.append([child, grandkids, 0, 0])
                    continue
                n = paths[child] = 1
                finished.append(child)
            frame[3] = below + n
            found += n
            if found > cap:
                raise _cap_error(cap)
        finished.reverse()
        ids = {state: i for i, state in enumerate(finished)}
        offsets, child_ids = [0], []
        for state in finished:
            for _, child in expanded[state] or ():
                child_ids.append(ids[child])
            offsets.append(len(child_ids))
        parents = [1] * len(finished)
        if self.parent_mode == "exact":
            parents[1:] = map(self.cached_parent_count, finished[1:])
        return Dag(finished, offsets, child_ids, parents, paths[self.s0])

    def cached_parent_count(self, state: str) -> int:
        count = self._parent_count_cache.get(state)
        if count is None:
            count = self._parent_count_cache[state] = self.parent_count(state)
        return count

    # -- shared reward helpers -------------------------------------------------

    def floored(self, success_term: float, intermediate_term: float) -> float:
        return max(success_term + intermediate_term, self.reward_floor)

    def step_score(self, state: str, child: str) -> float:
        """The scorer's p of the step from `state` to `child`, which must lie in
        (0, 1), clamped to [P_SCORE_MIN, P_SCORE_MAX].

        Under `uniform`, p depends on the state alone, so it is scored once per
        decision point."""
        uniform = self.scorer == "uniform"
        if uniform:
            key = self.decision_key(state)
            p = self._uniform_scores.get(key)
            if p is not None:
                return p
        p = SCORERS[self.scorer](self, state, child)
        if not (0.0 < p < 1.0):
            raise ScorerContractError(f"scorer {self.scorer} returned p={p} outside (0,1)")
        p = min(max(p, P_SCORE_MIN), P_SCORE_MAX)
        if uniform:
            self._uniform_scores[key] = p
        return p


# the most decision points whose rows an env keeps in its own cache; past it
# the oldest goes (a later query builds its rows again)
FEATURE_CACHE_STATES = 2048


def _cap_error(cap: int) -> EnumerationCapError:
    return EnumerationCapError(f"instance exceeds the {cap}-trajectory enumeration cap", cap + 1)


def bounded_put(store: dict, key, value, limit: int):
    """`store[key] = value`, first dropping the oldest entry if `store` holds `limit`."""
    if len(store) >= limit:
        store.pop(next(iter(store)))
    store[key] = value
    return value


def int_difficulty(env_id: str, difficulty: str, choices, want: str) -> int:
    """`difficulty` read as one of the integers in `choices`; anything else is
    a GenerationError that names it."""
    try:
        value = int(difficulty)
    except ValueError:
        value = None
    if value not in choices:
        raise GenerationError(f"bad {env_id} difficulty {difficulty!r}, want {want}")
    return value
