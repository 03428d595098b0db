"""Explicit-graph fixture environment.

The whole transition graph travels inside the instance's goal field as JSON:
{"edges": {state: {action: child}}, "rewards": {terminal: value}}. Rewards
are a function of the terminal state and there is no intermediate term, so
results on this environment are exactly checkable against the enumeration
oracle. A state's parents are the graph's edges into it from the states that
s0 reaches, one per edge even when two actions of one state lead to it, so
uniform P_B never leaks backward mass off the instance's DAG and Z is the sum
of the reachable terminals' rewards. A cycle that s0 reaches, or a reward that
is no finite number, makes the instance malformed.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ..errors import GenerationError, InvalidActionError, StructuralError
from ..rngutil import substream
from .base import EnvInstance, Environment


def make_graph_goal(edges: dict[str, dict[str, str]], rewards: dict[str, float]) -> str:
    return json.dumps({"edges": edges, "rewards": rewards}, sort_keys=True)


class ToyDagEnv(Environment):
    env_id = "toydag"
    parent_mode = "exact"

    def parse_instance(self):
        doc = json.loads(self.goal)
        self.edges: dict[str, dict[str, str]] = doc["edges"]
        self.rewards: dict[str, float] = doc["rewards"]
        if self.s0 not in self.edges:
            raise KeyError(f"s0 {self.s0!r} is no state of the graph")
        for terminal, value in self.rewards.items():
            if type(value) not in (int, float) or not math.isfinite(value):  # bool is no number
                raise StructuralError(f"the reward of {terminal!r} is {value!r}, "
                                      "not a finite number")
        pairs = [(s, a) for s in sorted(self.edges) for a in sorted(self.edges[s])]
        self._pair_index = {pair: i for i, pair in enumerate(pairs)}
        # one parent per edge from a state s0 reaches: an edge from a state off
        # the instance's DAG carries no flow, and two actions from one state into
        # one child are two ways in, so either miscount would leak backward mass
        self._parents: dict[str, int] = {}
        stack = [self.s0]
        while stack:
            state = stack.pop()
            for child in self.edges.get(state, {}).values():
                if child not in self._parents:
                    stack.append(child)
                self._parents[child] = self._parents.get(child, 0) + 1
        # Kahn's order over the states s0 reaches: one left out lies on a cycle,
        # which would make the walk from s0 endless
        ins = dict(self._parents)
        order = [] if self.s0 in ins else [self.s0]
        for state in order:
            for child in self.edges.get(state, {}).values():
                ins[child] -= 1
                if not ins[child]:
                    order.append(child)
        if len(order) < len(ins.keys() | {self.s0}):
            raise StructuralError("the graph has a cycle that s0 reaches")

    def _actions(self, state):
        return sorted(self.edges[state])

    def apply(self, state, action):
        try:
            return self.edges[state][action]
        except KeyError:
            raise InvalidActionError(f"action {action!r} invalid at {state!r}") from None

    def is_terminal(self, state):
        return state not in self.edges or not self.edges[state]

    def is_success(self, traj):
        return traj.is_complete

    def success_term(self, terminal):
        return float(self.rewards.get(terminal, 0.0))

    def edge_term(self, state, child):
        return 0.0

    def parent_count(self, state):
        if state == self.s0:
            raise StructuralError("parent count undefined for the initial state")
        count = self._parents.get(state)
        if not count:
            raise StructuralError(f"state {state!r} has no parents in the graph")
        return count

    @property
    def feature_dim(self):
        return len(self._pair_index)

    def featurize(self, state, action):
        vec = np.zeros(self.feature_dim)
        vec[self._pair_index[(state, action)]] = 1.0
        return vec


def generate_instances(count: int, seed: int, difficulty: str | None = None) -> list[EnvInstance]:
    """Random small layered DAGs with positive terminal rewards; toydag reads no difficulty."""
    if difficulty:
        raise GenerationError(f"toydag takes no difficulty, got {difficulty!r}")
    rng = substream(seed, "gen", "toydag")
    out = []
    for i in range(count):
        n_layers = int(rng.integers(2, 4))
        layer_sizes = [1] + [int(rng.integers(2, 4)) for _ in range(n_layers)]
        names = [["s0"]] + [
            [f"l{li}n{ni}" for ni in range(sz)] for li, sz in enumerate(layer_sizes[1:], start=1)
        ]
        edges: dict[str, dict[str, str]] = {}
        for li in range(n_layers):
            for state in names[li]:
                n_out = int(rng.integers(1, len(names[li + 1]) + 1))
                children = sorted(
                    rng.choice(len(names[li + 1]), size=n_out, replace=False).tolist()
                )
                edges[state] = {f"a{c}": names[li + 1][c] for c in children}
        # every terminal-layer state that is actually reachable gets a reward
        reachable = {"s0"}
        for li in range(n_layers):
            for state in list(reachable):
                if state in edges:
                    reachable.update(edges[state].values())
        rewards = {
            s: float(np.round(rng.uniform(0.5, 5.0), 6)) for s in names[-1] if s in reachable
        }
        out.append(
            EnvInstance(
                env_id="toydag",
                instance_id=f"toydag-{seed}-{i}",
                s0="s0",
                goal=make_graph_goal(edges, rewards),
                max_steps=n_layers,
            )
        )
    return out
