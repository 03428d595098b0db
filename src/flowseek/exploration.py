"""Behavior-policy machinery: mixed rollouts, prioritized replay, local search.

Rollouts mix epsilon-uniform steps with tempered policy sampling and return
the path and its reward only; the trainer scores every batch trajectory at
the current parameters in one place. Rollouts at one params snapshot share
its memo (`policy.memo_logits`), so they run each decision point's forward
pass, and each of its tempered cdfs, once. The replay buffer keeps one pool
of complete trajectories per instance, with priority equal to the reward (or
log1p reward), and samples an instance's pool proportionally. Local search
truncates the last K steps of a high-reward trajectory, re-rolls them with
uniform-random valid actions, and keeps only strict reward improvements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import EmptyBufferError
from .flow_core import Trajectory
from .policy import PolicyParams, memo_logits, sample_action


def check_finite_floats(obj) -> None:
    """Raise ValueError naming the first float field of dataclass `obj` that is NaN or infinite."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type.startswith("float") and value is not None and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass
class ExplorationSchedule:
    """Linear annealing of the behavior-policy knobs, clamped at the endpoints."""

    eps_start: float = 0.3
    eps_end: float = 0.01
    beta_start: float = 1.0
    beta_end: float = 2.0
    replay_prob_start: float = 0.3
    replay_prob_end: float = 0.5
    total_iterations: int = 1

    def __post_init__(self) -> None:
        check_finite_floats(self)
        for name in ("eps_start", "eps_end", "replay_prob_start", "replay_prob_end"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        for name in ("beta_start", "beta_end"):
            value = getattr(self, name)
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    def at(self, iteration: int) -> tuple[float, float, float]:
        frac = min(max(iteration / max(self.total_iterations, 1), 0.0), 1.0)

        def lerp(a: float, b: float) -> float:
            if frac == 0.0:
                return a
            if frac == 1.0:
                return b
            return a + (b - a) * frac

        return (
            lerp(self.eps_start, self.eps_end),
            lerp(self.beta_start, self.beta_end),
            lerp(self.replay_prob_start, self.replay_prob_end),
        )


def _rollout(env, instance_id: str, states: list[str], actions: list[str], step) -> Trajectory:
    """Extend the prefix `states`/`actions` to a terminal state and reward the result.

    `step(state)` returns the action to take."""
    state = states[-1]
    while not env.is_terminal(state):
        action = step(state)
        state = env.apply(state, action)
        states.append(state)
        actions.append(action)
    traj = Trajectory(instance_id, states, actions, is_complete=True)
    traj.reward = env.reward(traj)
    return traj


def sample_trajectory_mixed(
    params: PolicyParams,
    env,
    eps: float,
    beta: float,
    rng: np.random.Generator,
) -> Trajectory:
    """Roll out one complete trajectory under the eps/beta behavior policy.

    beta == 0 is the greedy limit of tempered sampling: the highest logit,
    ties to the first action. Each step reads its distribution from the memo
    that `params` keeps per env (see `policy.memo_logits`), so all rollouts
    at one snapshot run each decision point's forward pass, and temper it at
    each beta, once. The trajectory carries no log P_F: a caller that needs
    it scores the path at the parameters it trains.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0,1], got {eps}")
    if beta < 0.0:
        raise ValueError(f"beta must be non-negative, got {beta}")

    def step(state: str) -> str:
        dist = memo_logits(params, state, env)
        if rng.random() < eps:
            i = int(rng.integers(len(dist.action_ids)))
        elif beta == 0.0:
            i = int(np.argmax(dist.logits))
        else:
            i = sample_action(dist, beta, rng)
        return dist.action_ids[i]

    return _rollout(env, env.instance.instance_id, [env.s0], [], step)


@dataclass
class ReplayBuffer:
    """Complete trajectories and their priorities, one pool per instance.

    `pools[instance_id]` holds that instance's trajectories and priorities side
    by side in insertion order, at most `capacity` of them, so one instance's
    inserts never evict another instance's entries."""

    capacity: int
    priority_mode: str = "reward"  # or "log_reward"
    pools: dict[str, tuple[list[Trajectory], list[float]]] = field(default_factory=dict)
    _keys: set = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("buffer capacity must be positive")
        if self.priority_mode not in ("reward", "log_reward"):
            raise ValueError(f"unknown priority mode {self.priority_mode!r}")

    def __len__(self) -> int:
        return sum(len(trajs) for trajs, _ in self.pools.values())


def buffer_insert(buffer: ReplayBuffer, traj: Trajectory) -> ReplayBuffer:
    """Insert a complete trajectory; duplicates keep the existing entry.

    Past capacity the first entry of lowest priority in the trajectory's pool
    is evicted."""
    key = (traj.instance_id, tuple(traj.actions))
    if key in buffer._keys:
        return buffer
    trajs, priorities = buffer.pools.setdefault(traj.instance_id, ([], []))
    trajs.append(traj)
    log = buffer.priority_mode == "log_reward"
    priorities.append(math.log1p(traj.reward) if log else traj.reward)
    buffer._keys.add(key)
    if len(trajs) > buffer.capacity:
        lowest = priorities.index(min(priorities))
        del priorities[lowest]
        evicted = trajs.pop(lowest)
        buffer._keys.discard((evicted.instance_id, tuple(evicted.actions)))
    return buffer


def buffer_sample(
    buffer: ReplayBuffer, count: int, rng: np.random.Generator, instance_id: str
) -> list[Trajectory]:
    """Draw `count` of `instance_id`'s trajectories with replacement, proportional to priority."""
    trajs, priorities = buffer.pools.get(instance_id, ((), ()))
    if not trajs:
        raise EmptyBufferError(f"replay buffer empty for instance {instance_id}")
    weights = np.array(priorities, dtype=np.float64)
    idx = rng.choice(len(trajs), size=count, replace=True, p=weights / weights.sum())
    return [trajs[int(i)] for i in idx]


def local_search(
    traj_best: Trajectory,
    env,
    num_recon: int = 4,
    k_mode: str | int = "uniform",
    *,
    rng: np.random.Generator,
) -> list[Trajectory]:
    """Destroy-and-reconstruct: back up K steps, re-roll uniformly, keep strict improvers."""
    n = traj_best.n_steps
    if n < 1:
        return []
    candidates: list[Trajectory] = []

    def step(state: str) -> str:
        options = env.cached_valid_actions(state)
        return options[int(rng.integers(len(options)))]

    for _ in range(num_recon):
        if k_mode == "uniform":
            if n < 2:
                return []
            k = int(rng.integers(1, n))  # K in [1, n-1]
        else:
            k = min(int(k_mode), n)
        cand = _rollout(env, traj_best.instance_id, traj_best.states[: n - k + 1],
                        traj_best.actions[: n - k], step)
        if cand.reward > traj_best.reward:
            candidates.append(cand)
    return candidates
