"""Explicit-graph fixture environment.

The whole transition graph travels inside the instance's goal field as JSON:
{"edges": {state: {action: child}}, "rewards": {terminal: value}}. Rewards
are a function of the terminal state and there is no intermediate term, so
results on this environment are exactly checkable against the enumeration
oracle. A state's parents are the graph's states that s0 reaches and that
have an edge into it, so uniform P_B never leaks backward mass to states off
the instance's DAG and Z is the sum of the reachable terminals' rewards.
"""

from __future__ import annotations

import json

import numpy as np

from ..errors import GenerationError, InvalidActionError, TerminalQueryError
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
        pairs = [(s, a) for s in sorted(self.edges) for a in sorted(self.edges[s])]
        self._pair_index = {pair: i for i, pair in enumerate(pairs)}
        # parents only among the states s0 reaches: an edge from a state off the
        # instance's DAG carries no flow, so counting it would leak backward mass
        self._parents: dict[str, set[str]] = {}
        stack = [self.s0]
        while stack:
            state = stack.pop()
            for child in self.edges.get(state, {}).values():
                if child not in self._parents:
                    stack.append(child)
                self._parents.setdefault(child, set()).add(state)

    def valid_actions(self, state):
        if self.is_terminal(state):
            raise TerminalQueryError(f"state {state!r} is terminal")
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

    def edge_term(self, state, action, child):
        return 0.0

    def parent_count(self, state):
        from ..errors import StructuralError

        if state == self.s0:
            raise StructuralError("parent count undefined for the initial state")
        parents = self._parents.get(state)
        if not parents:
            raise StructuralError(f"state {state!r} has no parents in the graph")
        return len(parents)

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
