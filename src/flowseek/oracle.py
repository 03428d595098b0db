"""Ground-truth machinery: exact target and policy distributions of an instance.

A complete trajectory tau carries flow F(tau) = R(tau) * prod(1/|Pa(s_t)|);
summing flows gives the partition value Z, and normalizing gives the target
terminal distribution the trained sampler should match. In tree mode the
backward product is 1, so Z is simply the sum of trajectory rewards; when
trajectories merge, a terminal's reward mass is split across its incoming
trajectories in proportion to the uniform backward flow.

Every pass reads the instance's `Dag` (`Environment.dag`, walked once per
env): states on dense ids in topological order, edge rows and |Pa| per state.
No pass expands a state or counts parents. The policy pass, for every
environment, visits each state once and carries its log mass: log P(c) is
the log-sum-exp over parent edges p->c of log P(p) + log pi(a|p).

In exact mode (merging states) the reward is a success term plus scaled
edge terms, and the target pass runs forward over the ids: per state it
carries the backward weight A = sum over parent edges p->c of A(p)/|Pa(c)|
and the edge-reward mass B = sum of (B(p) + A(p)*edge)/|Pa(c)|, and a
terminal x gets flow S(x)*A(x) + scale*B(x). A floor that can bind breaks
that decomposition. Those targets, and every tree's, come from a walk over
every trajectory that carries the reward fold (`Environment.reward_step`)
and the backward product; in a tree it visits each state once.

Both raise `EnumerationCapError` with partial count cap + 1 once the instance
provably has more than `cap` trajectories; the walk behind `dag` knows that as
soon as the paths it has counted pass the cap, without expanding the rest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .environments.base import Dag
from .policy import PolicyParams, action_logits

ENUMERATION_CAP = 1_000_000


@dataclass
class DagSummary:
    """Partition value, reward-proportional terminal targets and trajectory count."""

    Z: float
    target_terminal_dist: dict[str, float]
    n_trajectories: int

    @property
    def n_terminals(self) -> int:
        return len(self.target_terminal_dist)


def _forward_targets(env, dag: Dag) -> DagSummary | None:
    """Targets from each terminal's flow S(x)*A(x) + scale*B(x); None if the floor can bind.

    `low` is the least scaled edge sum of any path into a state, so a
    terminal's least reward is S(x) + low(x); once that is below the floor,
    max(reward, floor) is no longer the edge sum and the pass gives up."""
    scale = env.edge_scale
    states, offsets, child, parents, _ = dag
    n = len(states)
    back, edge_mass, low = [1.0] + [0.0] * (n - 1), [0.0] * n, [0.0] + [math.inf] * (n - 1)
    flows: dict[str, float] = {}
    for i, state in enumerate(states):
        a, b, lo = back[i], edge_mass[i], low[i]
        first, last = offsets[i], offsets[i + 1]
        if first == last:
            success = env.success_term(state)
            if success + lo < env.reward_floor:
                return None
            flows[state] = success * a + scale * b
            continue
        for c in child[first:last]:
            edge = env.edge_term(state, states[c])
            k = parents[c]
            back[c] += a / k
            edge_mass[c] += (b + a * edge) / k
            reach = lo + scale * edge
            if reach < low[c]:
                low[c] = reach
    z = float(sum(flows.values()))
    return DagSummary(z, {x: flow / z for x, flow in flows.items()}, dag.n_trajectories)


def _walk_targets(env, dag: Dag) -> DagSummary:
    """Targets from the flow of every trajectory, walked one at a time.

    For trees, where each terminal has one trajectory and every backward
    factor is x / 1, and for exact-mode instances whose floor can bind. A
    stack entry carries its path's reward fold and backward product; the
    walk behind `dag` has counted the trajectories against the cap."""
    states, offsets, child, parents, _ = dag
    terminals, flows = [], []
    stack: list[tuple[int, object, float]] = [(0, env.reward_start, 1.0)]
    while stack:
        i, acc, back = stack.pop()
        state = states[i]
        first, last = offsets[i], offsets[i + 1]
        if first == last:
            flows.append(env.reward_finish(acc, state) * back)
            terminals.append(state)
            continue
        for c in reversed(child[first:last]):
            stack.append((c, env.reward_step(acc, state, states[c]), back / parents[c]))
    z = float(sum(flows))
    terminal_dist: dict[str, float] = {}
    for terminal, flow in zip(terminals, flows):
        terminal_dist[terminal] = terminal_dist.get(terminal, 0.0) + flow / z
    return DagSummary(z, terminal_dist, dag.n_trajectories)


def enumerate_dag(instance, env, cap: int = ENUMERATION_CAP) -> DagSummary:
    """Z, the target terminal distribution and the trajectory count of the instance."""
    dag = env.dag(cap)
    summary = _forward_targets(env, dag) if env.parent_mode == "exact" else None
    return summary if summary is not None else _walk_targets(env, dag)


def policy_terminal_dist(
    params: PolicyParams, instance, env, cap: int = ENUMERATION_CAP
) -> dict[str, float]:
    """Exact terminal-state mass of the policy: one forward pass in topological order.

    Each state carries its log mass. A child's first parent gives it
    log P(p) + log pi(a|p), the sum a walk along its one path would build,
    and each later parent merges in by log-add-exp. States that share a
    decision key share their action log-probs, which follow
    `cached_valid_actions` order, as the DAG's edges do."""
    states, offsets, child, _, _ = env.dag(cap)
    step_logprobs: dict[str, list[float]] = {}
    log_mass: list[float | None] = [0.0] + [None] * (len(states) - 1)
    out: dict[str, float] = {}
    for i, state in enumerate(states):
        logp = log_mass[i]
        first, last = offsets[i], offsets[i + 1]
        if first == last:
            out[state] = math.exp(logp)
            continue
        key = env.decision_key(state)
        lps = step_logprobs.get(key)
        if lps is None:
            lps = step_logprobs[key] = action_logits(params, state, env).log_probs.tolist()
        for c, lp in zip(child[first:last], lps):
            a = logp + lp
            b = log_mass[c]
            if b is not None:  # log(e^a + e^b), cheaper than scalar np.logaddexp
                a = max(a, b) + math.log1p(math.exp(-abs(a - b)))
            log_mass[c] = a
    return out


def tv_distance(p: dict, q: dict) -> float:
    """Half the L1 distance between two distributions; missing keys count as 0.

    `math.fsum` is correctly rounded, so the sum does not depend on its order,
    which for a key set follows the string hash seed.
    """
    return 0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in p.keys() | q.keys())


def write_offline_game24(path, instances) -> int:
    """Write every solution of each instance as an offline-trajectory record,
    solved again (a decode-table read once the process has met the hand): a
    hand-written instance file may list `gold_solutions` in part."""
    from .environments.game24 import parse_values, solve_game24

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
