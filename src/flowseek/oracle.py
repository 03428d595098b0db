"""Ground-truth machinery: exhaustive DAG enumeration and exact distributions.

Enumeration walks every legal complete trajectory of an instance. Each
trajectory tau carries flow F(tau) = R(tau) * prod(1/|Pa(s_t)|); summing flows
gives the partition value Z, and normalizing gives the target trajectory and
terminal distributions the trained sampler should match. In tree mode the
backward product is 1, so Z is simply the sum of trajectory rewards; when
trajectories merge, a terminal's reward mass is split across its incoming
trajectories in proportion to the uniform backward flow.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EnumerationCapError
from .flow_core import Trajectory
from .policy import PolicyParams, action_logits

ENUMERATION_CAP = 1_000_000


@dataclass
class DagSummary:
    """Full trajectory set of one instance with the reward-proportional targets."""

    trajectories: list[tuple[tuple[str, ...], str, float]]  # (actions, terminal, reward)
    Z: float
    target_terminal_dist: dict[str, float]
    target_traj_dist: dict[tuple[str, ...], float] = field(default_factory=dict)

    @property
    def n_trajectories(self) -> int:
        return len(self.trajectories)

    @property
    def n_terminals(self) -> int:
        return len(self.target_terminal_dist)


def enumerate_dag(instance, env, cap: int = ENUMERATION_CAP) -> DagSummary:
    """Exhaustively enumerate the instance and compute the target distributions.

    Each state is expanded once per env (`env.children`), so merging paths
    share that work; a stack entry carries its path's backward product."""
    exact = env.parent_mode != "tree"
    trajectories = []
    flows = []
    stack: list[tuple[list[str], list[str], float]] = [([], [env.s0], 1.0)]
    while stack:
        actions, states, back = stack.pop()
        children = env.children(states[-1])
        if children is None:
            if len(trajectories) >= cap:
                raise EnumerationCapError(
                    f"instance exceeds the {cap}-trajectory enumeration cap", cap + 1
                )
            traj = Trajectory(instance.instance_id, states, actions, [0.0] * len(actions),
                              is_complete=True)
            reward = env.reward(traj).total
            trajectories.append((tuple(actions), states[-1], reward))
            flows.append(reward * back)
            continue
        for action, child in reversed(children):
            child_back = back / env.cached_parent_count(child) if exact else back
            stack.append((actions + [action], states + [child], child_back))

    z = float(sum(flows))
    traj_dist: dict[tuple[str, ...], float] = {}
    terminal_dist: dict[str, float] = {}
    for (actions, terminal, _), flow in zip(trajectories, flows):
        p = flow / z
        traj_dist[actions] = p
        terminal_dist[terminal] = terminal_dist.get(terminal, 0.0) + p
    return DagSummary(trajectories, z, terminal_dist, traj_dist)


def policy_terminal_dist(
    params: PolicyParams, instance, env, cap: int = ENUMERATION_CAP
) -> dict[str, float]:
    """Exact terminal-state mass of the policy by enumerating all trajectories."""
    # states sharing a decision key share their action distribution
    dist_cache: dict[str, np.ndarray] = {}

    def step_logprobs(state: str) -> np.ndarray:
        key = env.decision_key(state)
        if key not in dist_cache:
            dist_cache[key] = action_logits(params, state, env).log_probs
        return dist_cache[key]

    out: dict[str, float] = {}
    count = 0
    stack: list[tuple[str, float]] = [(env.s0, 0.0)]
    while stack:
        state, logp = stack.pop()
        children = env.children(state)
        if children is None:
            count += 1
            if count > cap:
                raise EnumerationCapError(
                    f"instance exceeds the {cap}-trajectory enumeration cap", count
                )
            out[state] = out.get(state, 0.0) + math.exp(logp)
            continue
        # log_probs follow `valid_actions` order, as `children` does
        for (_, child), lp in zip(children, step_logprobs(state)):
            stack.append((child, logp + float(lp)))
    return out


def tv_distance(p: dict, q: dict) -> float:
    """Half the L1 distance between two distributions; missing keys count as 0.

    The sum runs over sorted keys with `math.fsum`, so the result does not
    depend on set iteration order, which follows the string hash seed.
    """
    keys = sorted(p.keys() | q.keys())
    return 0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


# Game24 brute-force search doubles as the offline-data generator.
from .environments.game24 import solve_game24  # noqa: E402  (re-export)


def write_offline_game24(path, instances) -> int:
    """Write every solution of each instance as an offline-trajectory record."""
    from .environments.game24 import parse_values

    n = 0
    with open(path, "w", encoding="utf-8") as f:
        for inst in instances:
            numbers = parse_values(inst.s0.split("|left=")[1])
            for key in sorted(solve_game24(numbers)):
                rec = {"instance_id": inst.instance_id, "actions": key.split(";")}
                f.write(json.dumps(rec, sort_keys=True))
                f.write("\n")
                n += 1
    return n
