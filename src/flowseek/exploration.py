"""Behavior-policy machinery: mixed rollouts, prioritized replay, local search.

Rollouts mix epsilon-uniform steps with tempered policy sampling, but the
recorded log P_F terms always come from the online (temperature-1) policy,
which is what the losses score. The replay buffer stores complete
trajectories with priority equal to the reward (or log1p reward) and samples
proportionally. Local search truncates the last K steps of a high-reward
trajectory, re-rolls them with uniform-random valid actions, and keeps only
strict reward improvements.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyBufferError
from .flow_core import Trajectory
from .policy import PolicyParams, action_logits, sample_action


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


def sample_trajectory_mixed(
    params: PolicyParams,
    env,
    eps: float,
    beta: float,
    rng: np.random.Generator,
) -> Trajectory:
    """Roll out one complete trajectory under the eps/beta behavior policy.

    beta == 0 is the greedy limit of tempered sampling: the highest logit,
    ties to the first action.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0,1], got {eps}")
    if beta < 0.0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    state = env.s0
    states = [state]
    actions: list[str] = []
    logpf: list[float] = []
    while not env.is_terminal(state):
        dist = action_logits(params, state, env.goal, env)
        if rng.random() < eps:
            action = dist.action_ids[int(rng.integers(len(dist.action_ids)))]
        elif beta == 0.0:
            action = dist.action_ids[int(np.argmax(dist.logits))]
        else:
            action = sample_action(dist, beta, rng)
        logpf.append(float(dist.log_probs[dist.action_ids.index(action)]))
        state = env.apply(state, action)
        states.append(state)
        actions.append(action)
    traj = Trajectory(
        instance_id=env.instance.instance_id,
        states=states,
        actions=actions,
        logpf_terms=logpf,
        is_complete=True,
    )
    traj.reward = env.reward(traj).total
    return traj


@dataclass
class ReplayEntry:
    traj: Trajectory
    priority: float
    insert_iteration: int


@dataclass
class ReplayBuffer:
    capacity: int
    priority_mode: str = "reward"  # or "log_reward"
    entries: list[ReplayEntry] = field(default_factory=list)
    _keys: set = field(default_factory=set)
    _priorities: list = field(default_factory=list)  # entries' priorities, in entries order

    def __post_init__(self) -> None:
        self._priorities = [e.priority for e in self.entries]
        if self.capacity < 1:
            raise ValueError("buffer capacity must be positive")
        if self.priority_mode not in ("reward", "log_reward"):
            raise ValueError(f"unknown priority mode {self.priority_mode!r}")

    def __len__(self) -> int:
        return len(self.entries)

    def priority_of(self, traj: Trajectory) -> float:
        if self.priority_mode == "log_reward":
            return math.log1p(traj.reward)
        return traj.reward


def buffer_insert(buffer: ReplayBuffer, traj: Trajectory, iteration: int = 0) -> ReplayBuffer:
    """Insert a complete trajectory; duplicates keep the existing entry."""
    key = (traj.instance_id, tuple(traj.actions))
    if key in buffer._keys:
        return buffer
    buffer.entries.append(ReplayEntry(traj, buffer.priority_of(traj), iteration))
    buffer._priorities.append(buffer.entries[-1].priority)
    buffer._keys.add(key)
    if len(buffer.entries) > buffer.capacity:
        lowest = buffer._priorities.index(min(buffer._priorities))
        del buffer._priorities[lowest]
        evicted = buffer.entries.pop(lowest)
        buffer._keys.discard((evicted.traj.instance_id, tuple(evicted.traj.actions)))
    return buffer


def buffer_sample(
    buffer: ReplayBuffer,
    count: int,
    rng: np.random.Generator,
    instance_id: str | None = None,
) -> list[Trajectory]:
    """Draw `count` trajectories with replacement, proportional to priority.

    With `instance_id`, sampling is restricted to that instance's entries.
    """
    pool = buffer.entries
    if instance_id is not None:
        pool = [e for e in pool if e.traj.instance_id == instance_id]
    if not pool:
        raise EmptyBufferError(
            "replay buffer empty" + (f" for instance {instance_id}" if instance_id else "")
        )
    priorities = np.array([e.priority for e in pool], dtype=np.float64)
    probs = priorities / priorities.sum()
    idx = rng.choice(len(pool), size=count, replace=True, p=probs)
    return [pool[int(i)].traj for i in idx]


def local_search(
    traj_best: Trajectory,
    env,
    num_recon: int = 4,
    k_mode: str | int = "uniform",
    rng: np.random.Generator | None = None,
) -> list[Trajectory]:
    """Destroy-and-reconstruct: back up K steps, re-roll uniformly, keep strict improvers."""
    rng = rng if rng is not None else np.random.default_rng(0)
    n = traj_best.n_steps
    if n < 1:
        return []
    candidates: list[Trajectory] = []
    for _ in range(num_recon):
        if k_mode == "uniform":
            if n < 2:
                return []
            k = int(rng.integers(1, n))  # K in [1, n-1]
        else:
            k = min(int(k_mode), n)
        prefix_states = traj_best.states[: n - k + 1]
        states = list(prefix_states)
        actions = list(traj_best.actions[: n - k])
        state = states[-1]
        while not env.is_terminal(state):
            options = env.valid_actions(state)
            action = options[int(rng.integers(len(options)))]
            state = env.apply(state, action)
            states.append(state)
            actions.append(action)
        cand = Trajectory(
            instance_id=traj_best.instance_id,
            states=states,
            actions=actions,
            logpf_terms=[0.0] * len(actions),
            is_complete=True,
        )
        cand.reward = env.reward(cand).total
        if cand.reward > traj_best.reward:
            candidates.append(cand)
    return candidates


def dump_buffer(buffer: ReplayBuffer, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for entry in buffer.entries:
            rec = {
                "instance_id": entry.traj.instance_id,
                "actions": entry.traj.actions,
                "reward": entry.traj.reward,
                "priority": entry.priority,
                "insert_iteration": entry.insert_iteration,
            }
            f.write(json.dumps(rec, sort_keys=True))
            f.write("\n")


def restore_buffer(path, envs_by_instance: dict, capacity: int,
                   priority_mode: str = "reward") -> ReplayBuffer:
    """Rebuild a buffer dump by replaying each record through its environment."""
    from .environments import replay_trajectory

    buffer = ReplayBuffer(capacity=capacity, priority_mode=priority_mode)
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            env = envs_by_instance[rec["instance_id"]]
            traj = replay_trajectory(env, rec["actions"])
            buffer_insert(buffer, traj, iteration=rec.get("insert_iteration", 0))
    return buffer
