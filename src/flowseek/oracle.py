"""Ground-truth machinery: exact target and policy distributions of an instance.

A complete trajectory tau carries flow F(tau) = R(tau) * prod(1/|Pa(s_t)|);
summing flows gives the partition value Z, and normalizing gives the target
terminal distribution the trained sampler should match. In tree mode the
backward product is 1, so Z is simply the sum of trajectory rewards; when
trajectories merge, a terminal's reward mass is split across its incoming
trajectories in proportion to the uniform backward flow.

Both passes visit the instance's states once, in the topological order
that the env walks once and keeps (`Environment.topological_order`). The
policy pass does so for every environment (a tree is a DAG whose states have
one parent each) and carries each state's log mass: log P(c) is the
log-sum-exp over parent edges p->c of log P(p) + log pi(a|p).

The target pass in tree mode carries each state's reward fold
(`Environment.reward_step`) and finishes it at each terminal, so a shared
prefix is scored once. In exact mode (merging states) the reward is a
success term plus scaled edge terms: per state the pass carries the
backward weight A = sum over parent edges p->c of A(p)/|Pa(c)| and the
edge-reward mass B = sum of (B(p) + A(p)*edge)/|Pa(c)|, and a terminal x
gets flow S(x)*A(x) + scale*B(x). A floor that can bind breaks that
decomposition, so those exact-mode targets come from a walk over every
trajectory, which carries the fold along each path.

Both raise `EnumerationCapError` with partial count cap + 1 once the instance
provably has more than `cap` trajectories; the topological walk knows that as
soon as the paths it has counted pass the cap, without expanding the rest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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


def _forward_targets(env, order: list[str], n_trajectories: int) -> DagSummary | None:
    """Targets from each terminal's flow S(x)*A(x) + scale*B(x); None if the floor can bind.

    `low` is the least scaled edge sum of any path into a state, so a
    terminal's least reward is S(x) + low(x); once that is below the floor,
    max(reward, floor) is no longer the edge sum and the pass gives up."""
    scale = env.edge_scale
    back = {env.s0: 1.0}
    edge_mass = {env.s0: 0.0}
    low = {env.s0: 0.0}
    flows: dict[str, float] = {}
    for state in order:
        a, b, lo = back.pop(state), edge_mass.pop(state), low.pop(state)
        kids = env.children(state)
        if kids is None:
            success = env.success_term(state)
            if success + lo < env.reward_floor:
                return None
            flows[state] = success * a + scale * b
            continue
        for action, child in kids:
            edge = env.edge_term(state, action, child)
            k = env.cached_parent_count(child)
            back[child] = back.get(child, 0.0) + a / k
            edge_mass[child] = edge_mass.get(child, 0.0) + (b + a * edge) / k
            reach = lo + scale * edge
            if reach < low.get(child, math.inf):
                low[child] = reach
    z = float(sum(flows.values()))
    return DagSummary(z, {x: flow / z for x, flow in flows.items()}, n_trajectories)


def _tree_targets(env, order: list[str], n_trajectories: int) -> DagSummary:
    """Targets of a tree: each state carries the reward fold of its one path.

    The pass meets terminals in the reverse of depth-first walk order, so Z
    is summed, and the target filled, over the reversed list: the float sums
    of a walk over every trajectory, bit for bit."""
    folds = {env.s0: env.reward_start}
    flows: list[tuple[str, float]] = []
    for state in order:
        acc = folds.pop(state)
        kids = env.children(state)
        if kids is None:
            flows.append((state, env.reward_finish(acc, state)))
            continue
        for action, child in kids:
            folds[child] = env.reward_step(acc, state, action, child)
    flows.reverse()
    z = float(sum(flow for _, flow in flows))
    return DagSummary(z, {x: flow / z for x, flow in flows}, n_trajectories)


def _walk_targets(env, n_trajectories: int) -> DagSummary:
    """Exact-mode targets from the flow of every trajectory, walked one at a time.

    For the instances whose floor can bind. A stack entry carries its path's
    reward fold and backward product; the states are expanded already, and
    the topological pass has counted the trajectories against the cap."""
    terminals: list[str] = []
    flows: list[float] = []
    stack: list[tuple[str, object, float]] = [(env.s0, env.reward_start, 1.0)]
    while stack:
        state, acc, back = stack.pop()
        children = env.children(state)
        if children is None:
            flows.append(env.reward_finish(acc, state) * back)
            terminals.append(state)
            continue
        for action, child in reversed(children):
            stack.append((child, env.reward_step(acc, state, action, child),
                          back / env.cached_parent_count(child)))
    z = float(sum(flows))
    terminal_dist: dict[str, float] = {}
    for terminal, flow in zip(terminals, flows):
        terminal_dist[terminal] = terminal_dist.get(terminal, 0.0) + flow / z
    return DagSummary(z, terminal_dist, n_trajectories)


def enumerate_dag(instance, env, cap: int = ENUMERATION_CAP) -> DagSummary:
    """Z, the target terminal distribution and the trajectory count of the instance."""
    order, n_trajectories = env.topological_order(cap)
    if env.parent_mode == "tree":
        return _tree_targets(env, order, n_trajectories)
    summary = _forward_targets(env, order, n_trajectories)
    return summary if summary is not None else _walk_targets(env, n_trajectories)


def policy_terminal_dist(
    params: PolicyParams, instance, env, cap: int = ENUMERATION_CAP
) -> dict[str, float]:
    """Exact terminal-state mass of the policy: one forward pass in topological order.

    Each state carries its log mass. A child's first parent gives it
    log P(p) + log pi(a|p), the sum a walk along its one path would build,
    and each later parent merges in by log-add-exp. States that share a
    decision key share their action log-probs, which follow
    `cached_valid_actions` order, as `children` does."""
    order, _ = env.topological_order(cap)
    step_logprobs: dict[str, list[float]] = {}
    log_mass = {env.s0: 0.0}
    out: dict[str, float] = {}
    for state in order:
        logp = log_mass.pop(state)
        kids = env.children(state)
        if kids is None:
            out[state] = math.exp(logp)
            continue
        key = env.decision_key(state)
        lps = step_logprobs.get(key)
        if lps is None:
            lps = step_logprobs[key] = action_logits(params, state, env).log_probs.tolist()
        for (_, child), lp in zip(kids, lps):
            a = logp + lp
            b = log_mass.get(child)
            if b is not None:  # log(e^a + e^b), cheaper than scalar np.logaddexp
                a = max(a, b) + math.log1p(math.exp(-abs(a - b)))
            log_mass[child] = a
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
