from dataclasses import dataclass

import pytest

from flowseek.environments import EnvInstance, make_env
from flowseek.environments.toydag import make_graph_goal
from flowseek.errors import EnumerationCapError
from flowseek.exploration import sample_trajectory_mixed
from flowseek.flow_core import Trajectory
from flowseek.policy import PolicyParams, init_params
from flowseek.rngutil import substream


def two_terminal_instance(
    instance_id: str = "toy-2term", r_low: float = 1.0, r_high: float = 3.0
) -> EnvInstance:
    """Two-level tree with terminal rewards (r_low, r_high); target dist is proportional."""
    edges = {
        "s0": {"left": "mid_l", "right": "mid_r"},
        "mid_l": {"go": "t_low"},
        "mid_r": {"go": "t_high"},
    }
    rewards = {"t_low": r_low, "t_high": r_high}
    return EnvInstance(
        env_id="toydag",
        instance_id=instance_id,
        s0="s0",
        goal=make_graph_goal(edges, rewards),
        max_steps=2,
    )


def diamond_instance(instance_id: str = "toy-diamond") -> EnvInstance:
    """Merging DAG: two paths into a shared state, then two terminals (R=1, R=3)."""
    edges = {
        "s0": {"a": "p", "b": "q"},
        "p": {"c": "x"},
        "q": {"c": "x"},
        "x": {"d": "t1", "e": "t3"},
    }
    rewards = {"t1": 1.0, "t3": 3.0}
    return EnvInstance(
        env_id="toydag",
        instance_id=instance_id,
        s0="s0",
        goal=make_graph_goal(edges, rewards),
        max_steps=3,
    )


def reachable_nonterminal(env):
    """Every non-terminal state reachable from s0, breadth first."""
    order, seen = [env.s0], {env.s0}
    for state in order:  # `order` grows as it is walked
        for _, child in env.children(state) or ():
            if child not in seen:
                seen.add(child)
                order.append(child)
    return [s for s in order if not env.is_terminal(s)]


@pytest.fixture
def toy_instance():
    return two_terminal_instance()


@pytest.fixture
def toy_env(toy_instance):
    return make_env(toy_instance)


@pytest.fixture
def diamond_env():
    inst = diamond_instance()
    return inst, make_env(inst)


def rollout(env, seed=0, eps=1.0, beta=1.0, tag="t"):
    """Uniform-random complete trajectory (eps=1 ignores the zero policy)."""
    params = init_params("linear", env.feature_dim)
    return sample_trajectory_mixed(params, env, eps, beta, substream(seed, tag))


def random_params(variant, env, hidden=4, seed=0, scale=0.3):
    base = init_params(variant, env.feature_dim, hidden, seed=seed)
    noise = substream(seed, "params-noise").normal(0.0, scale, base.vector.shape)
    return PolicyParams(variant, env.feature_dim, hidden, base.vector + noise)


# -- reference enumerator: one trajectory at a time, with the uncached env methods --


@dataclass
class ReferenceDag:
    """Every trajectory of an instance with its reward and its target mass."""

    trajectories: list  # (actions, terminal, reward) per trajectory
    Z: float
    target_terminal_dist: dict
    target_traj_dist: dict

    @property
    def n_trajectories(self):
        return len(self.trajectories)


def walk_trajectories(env, cap):
    """(actions, states) of every complete trajectory, depth first."""
    count = 0
    stack = [([], [env.s0])]
    while stack:
        actions, states = stack.pop()
        state = states[-1]
        if env.is_terminal(state):
            count += 1
            if count > cap:
                raise EnumerationCapError(
                    f"instance exceeds the {cap}-trajectory enumeration cap", count
                )
            yield actions, states
            continue
        for action in reversed(env.valid_actions(state)):
            stack.append((actions + [action], states + [env.apply(state, action)]))


def reference_enumerate_dag(instance, env, cap=10**6):
    """Per-trajectory flows R(tau) * prod(1/|Pa(s_t)|), normalized by their sum."""
    trajectories = []
    flows = []
    for actions, states in walk_trajectories(env, cap):
        traj = Trajectory(
            instance_id=instance.instance_id,
            states=states,
            actions=actions,
            is_complete=True,
        )
        reward = env.reward(traj)
        back = 1.0
        if env.parent_mode != "tree":
            for state in states[1:]:
                back /= env.parent_count(state)
        trajectories.append((tuple(actions), states[-1], reward))
        flows.append(reward * back)
    z = float(sum(flows))
    traj_dist = {}
    terminal_dist = {}
    for (actions, terminal, _), flow in zip(trajectories, flows):
        p = flow / z
        traj_dist[actions] = p
        terminal_dist[terminal] = terminal_dist.get(terminal, 0.0) + p
    return ReferenceDag(trajectories, z, terminal_dist, traj_dist)
