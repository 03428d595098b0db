"""Ground-truth machinery: exact target and policy distributions of an instance.

A complete trajectory tau carries flow F(tau) = R(tau) * prod(1/|Pa(s_t)|);
summing flows gives the partition value Z, and normalizing gives the target
terminal distribution the trained sampler should match. In tree mode the
backward product is 1, so Z is simply the sum of trajectory rewards; when
trajectories merge, a terminal's reward mass is split across its incoming
trajectories in proportion to the uniform backward flow.

Both passes visit the instance's states once, in topological order. The
policy pass does so for every environment (a tree is a DAG whose states have
one parent each) and carries each state's log mass: log P(c) is the
log-sum-exp over parent edges p->c of log P(p) + log pi(a|p).

The target pass does so in exact mode (merging states), whose rewards are a
success term plus scaled edge terms (`Environment.reward`): per state it
carries the backward weight A = sum over parent edges p->c of A(p)/|Pa(c)|
and the edge-reward mass B = sum of (B(p) + A(p)*edge)/|Pa(c)|, and a
terminal x gets flow S(x)*A(x) + scale*B(x). Tree-mode rewards are not edge
sums, and a floor that can bind breaks the decomposition, so those targets
come from a walk over every trajectory.

Both raise `EnumerationCapError` with partial count cap + 1 once the instance
provably has more than `cap` trajectories; the topological pass knows that as
soon as the paths it has counted pass the cap, without expanding the rest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import EnumerationCapError
from .flow_core import Trajectory
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


def _cap_error(cap: int) -> EnumerationCapError:
    return EnumerationCapError(f"instance exceeds the {cap}-trajectory enumeration cap", cap + 1)


def _topological_order(env, cap: int) -> tuple[list[str], int]:
    """States reachable from s0, each after all its parents, and the trajectory count.

    A depth-first walk over `env.children` finishes a state once every path
    below it is counted; reversed finishing order is topological. `found`
    counts the complete trajectories through the states finished so far,
    each once, so it never exceeds the total and the walk stops as soon as it
    passes `cap`."""
    paths: dict[str, int] = {}  # finished state -> trajectories from it to a terminal
    finished: list[str] = []
    found = 0
    kids = env.children(env.s0)
    if kids is None:
        return [env.s0], 1
    stack = [[env.s0, kids, 0, 0]]  # state, children, next child, paths found below
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
            grandkids = env.children(child)
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
    return finished, paths[env.s0]


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


def _walk_targets(instance, env, cap: int) -> DagSummary:
    """Targets from the flow of every trajectory, walked one trajectory at a time.

    Each state is expanded once per env (`env.children`), so merging paths
    share that work; a stack entry carries its path's backward product."""
    exact = env.parent_mode != "tree"
    terminals: list[str] = []
    flows: list[float] = []
    stack: list[tuple[list[str], list[str], float]] = [([], [env.s0], 1.0)]
    while stack:
        actions, states, back = stack.pop()
        children = env.children(states[-1])
        if children is None:
            if len(flows) >= cap:
                raise _cap_error(cap)
            traj = Trajectory(instance.instance_id, states, actions, [0.0] * len(actions),
                              is_complete=True)
            flows.append(env.reward(traj) * back)
            terminals.append(states[-1])
            continue
        for action, child in reversed(children):
            child_back = back / env.cached_parent_count(child) if exact else back
            stack.append((actions + [action], states + [child], child_back))
    z = float(sum(flows))
    terminal_dist: dict[str, float] = {}
    for terminal, flow in zip(terminals, flows):
        terminal_dist[terminal] = terminal_dist.get(terminal, 0.0) + flow / z
    return DagSummary(z, terminal_dist, len(flows))


def enumerate_dag(instance, env, cap: int = ENUMERATION_CAP) -> DagSummary:
    """Z, the target terminal distribution and the trajectory count of the instance."""
    if env.parent_mode == "exact":
        summary = _forward_targets(env, *_topological_order(env, cap))
        if summary is not None:
            return summary
    return _walk_targets(instance, env, cap)


def policy_terminal_dist(
    params: PolicyParams, instance, env, cap: int = ENUMERATION_CAP
) -> dict[str, float]:
    """Exact terminal-state mass of the policy: one forward pass in topological order.

    Each state carries its log mass. A child's first parent gives it
    log P(p) + log pi(a|p), the sum a walk along its one path would build,
    and each later parent merges in by log-add-exp. States that share a
    decision key share their action log-probs, which follow
    `cached_valid_actions` order, as `children` does."""
    order, _ = _topological_order(env, cap)
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
