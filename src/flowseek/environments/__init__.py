"""Environment registry, instance generation dispatch, and featurizer options."""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np

from ..errors import EnumerationCapError, FlowseekError, GenerationError
from ..flow_core import Trajectory
from .arc1d import Arc1dEnv
from .base import EnvInstance, Environment, read_instances, write_instances
from .blocksworld import BlocksWorldEnv
from .cube2x2 import Cube2x2Env
from .game24 import Game24Env
from .logicchain import LogicChainEnv
from .toydag import ToyDagEnv

ENV_CLASSES: dict[str, type[Environment]] = {
    "game24": Game24Env,
    "cube2x2": Cube2x2Env,
    "blocksworld": BlocksWorldEnv,
    "arc1d": Arc1dEnv,
    "logicchain": LogicChainEnv,
    "toydag": ToyDagEnv,
}

ENV_IDS = sorted(ENV_CLASSES)
TABULAR_PAIR_CAP = 200_000  # the most (goal, state, action) pairs a tabular index holds


class TabularIndex:
    """One-hot index over every (goal, state, action) pair reachable in a set
    of instances. Intended for small instances where full capacity is wanted;
    unseen pairs get the zero row (uniform logits)."""

    def __init__(self, pairs):
        self.index = {pair: i for i, pair in enumerate(sorted(pairs))}

    @property
    def dim(self) -> int:
        return max(len(self.index), 1)

    @classmethod
    def build(cls, envs: list[Environment]) -> "TabularIndex":
        """The index over every pair the envs reach from s0, walked here with a pair
        cap: a merging DAG can hold few pairs but pass the oracle's trajectory cap."""
        pairs: set[tuple[str, str, str]] = set()
        for env in envs:
            seen = {env.s0}
            stack = [env.s0]
            while stack:
                state = stack.pop()
                for action, child in env.children(state) or ():
                    pairs.add((env.goal, state, action))
                    if len(pairs) > TABULAR_PAIR_CAP:
                        raise EnumerationCapError(
                            f"tabular featurizer exceeded {TABULAR_PAIR_CAP} pairs", len(pairs)
                        )
                    if child not in seen:
                        seen.add(child)
                        stack.append(child)
        return cls(pairs)

    def to_doc(self) -> dict:
        return {"pairs": [list(pair) for pair in self.index]}

    @classmethod
    def from_doc(cls, doc: dict) -> "TabularIndex":
        """The index `to_doc` wrote; a repeated pair raises ValueError."""
        table = cls(map(tuple, doc["pairs"]))
        if len(table.index) < len(doc["pairs"]):
            raise ValueError("the tabular index repeats a pair")
        return table


class TabularEnv:
    """Environment wrapper replacing the default featurizer with a one-hot table.

    Table rows are indexed by the full state, so two states never share rows:
    `decision_key` is the identity here, rather than the wrapped env's key
    (game24's drops the history), which `__getattr__` would otherwise expose
    to the oracle's policy cache. `feature_matrix` builds the one-hot rows
    from `table.index` on every call and keeps none: a row is as wide as the
    whole index, so a kept matrix costs (actions x index width) floats.
    """

    def __init__(self, env: Environment, table: TabularIndex):
        self._env = env
        self.table = table

    def __getattr__(self, name):
        return getattr(self._env, name)

    @property
    def feature_dim(self) -> int:
        return self.table.dim

    def decision_key(self, state: str) -> str:
        return state

    def feature_matrix(self, state: str) -> np.ndarray:
        actions = self.cached_valid_actions(state)
        mat = np.zeros((len(actions), self.table.dim))
        for row, action in enumerate(actions):
            col = self.table.index.get((self.goal, state, action))
            if col is not None:
                mat[row, col] = 1.0
        return mat


def _env_class(env_id: str) -> type[Environment]:
    try:
        return ENV_CLASSES[env_id]
    except KeyError:
        raise GenerationError(f"unknown environment id {env_id!r}") from None


def make_env(instance: EnvInstance, **settings) -> Environment:
    """The instance's environment; `settings` are `Environment` keywords (scorer by name)."""
    return _env_class(instance.env_id)(instance, **settings)


def make_envs(instances: list[EnvInstance], **settings) -> dict[str, Environment]:
    """One environment per instance, by id.

    A repeated `instance_id` raises FlowseekError, since the second env would
    replace the first."""
    ids = Counter(inst.instance_id for inst in instances)
    repeated = [i for i, n in ids.items() if n > 1]
    if repeated:
        raise FlowseekError(f"instance_id {repeated[0]!r} is repeated; envs are keyed by id")
    return {inst.instance_id: make_env(inst, **settings) for inst in instances}


def generate_instances(
    env_id: str, count: int, seed: int, difficulty: str | None = None
) -> list[EnvInstance]:
    """`count` instances from the generator in the env class's module."""
    module = sys.modules[_env_class(env_id).__module__]
    return module.generate_instances(count, seed, difficulty)


def replay_trajectory(env: Environment, actions: list[str]) -> Trajectory:
    """Rebuild a trajectory by applying `actions` from s0, and reward it.

    It is complete when the last state is terminal."""
    states = [env.s0]
    for action in actions:
        states.append(env.apply(states[-1], action))  # raises if illegal
    traj = Trajectory(
        instance_id=env.instance.instance_id,
        states=states,
        actions=list(actions),
        is_complete=env.is_terminal(states[-1]),
    )
    traj.reward = env.reward(traj)
    return traj
