"""Per-env DAG expansion caches and the oracle walkers built on them.

`Environment.children` and `Environment.cached_parent_count` are checked over
every reachable state against the uncached methods of a fresh env. The oracle
is checked for bit identity against a test-local copy of the per-trajectory
walker it replaced, which calls `valid_actions`/`apply`/`parent_count` once per
trajectory and so shares nothing across merging paths.
"""

import dataclasses
import math

import pytest

from flowseek.environments import TabularEnv, TabularIndex, generate_instances, make_env
from flowseek.environments.game24 import make_instance
from flowseek.environments.toydag import diamond_instance
from flowseek.errors import EnumerationCapError
from flowseek.flow_core import Trajectory
from flowseek.oracle import DagSummary, enumerate_dag, policy_terminal_dist, tv_distance
from flowseek.policy import action_logits

from conftest import random_params


INSTANCES = {
    "toydag-diamond": diamond_instance(),
    "toydag-gen": generate_instances("toydag", 1, seed=5)[0],
    "blocksworld-2": generate_instances("blocksworld", 1, seed=7, difficulty="2")[0],
    "blocksworld-4": generate_instances("blocksworld", 1, seed=7, difficulty="4")[0],
    "cube2x2-3": dataclasses.replace(
        generate_instances("cube2x2", 1, seed=7, difficulty="2")[0], max_steps=3
    ),
    "game24": make_instance([4, 4, 6, 8], "g24"),
    # three of its four steps keep the walk to about 700 trajectories
    "arc1d-3": dataclasses.replace(generate_instances("arc1d", 1, seed=7)[0], max_steps=3),
    "logicchain": generate_instances("logicchain", 1, seed=7, difficulty="3")[0],
}
CASES = sorted(INSTANCES) + ["tabular-blocksworld-2"]


def fresh_env(case):
    """A new env for `case`, with empty caches."""
    if case.startswith("tabular-"):
        inst = INSTANCES[case[len("tabular-"):]]
        # the table is built on another env, so the wrapped one starts empty
        table = TabularIndex.build([make_env(inst)])
        return inst, TabularEnv(make_env(inst), table)
    inst = INSTANCES[case]
    return inst, make_env(inst)


def reachable_states(env):
    """Every state reachable from s0, found with the uncached methods."""
    seen = {env.s0}
    stack = [env.s0]
    while stack:
        state = stack.pop()
        if env.is_terminal(state):
            continue
        for action in env.valid_actions(state):
            child = env.apply(state, action)
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return sorted(seen)


# -- the parent's per-trajectory walkers, kept as the reference -----------------


def _walk(env, cap):
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


def reference_enumerate_dag(instance, env, cap):
    trajectories = []
    flows = []
    for actions, states in _walk(env, cap):
        traj = Trajectory(
            instance_id=instance.instance_id,
            states=states,
            actions=actions,
            logpf_terms=[0.0] * len(actions),
            is_complete=True,
        )
        reward = env.reward(traj).total
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
    return DagSummary(trajectories, z, terminal_dist, traj_dist)


def reference_policy_terminal_dist(params, env, cap):
    dist_cache = {}

    def step_logprobs(state):
        key = env.decision_key(state)
        if key not in dist_cache:
            d = action_logits(params, state, env)
            dist_cache[key] = (d.action_ids, d.log_probs)
        return dist_cache[key]

    out = {}
    count = 0
    stack = [(env.s0, 0.0)]
    while stack:
        state, logp = stack.pop()
        if env.is_terminal(state):
            count += 1
            if count > cap:
                raise EnumerationCapError(
                    f"instance exceeds the {cap}-trajectory enumeration cap", count
                )
            out[state] = out.get(state, 0.0) + math.exp(logp)
            continue
        actions, logps = step_logprobs(state)
        for action, lp in zip(actions, logps):
            stack.append((env.apply(state, action), logp + float(lp)))
    return out


def _partial_count(fn):
    with pytest.raises(EnumerationCapError) as exc:
        fn()
    return exc.value.partial_count


# -- tests ------------------------------------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_children_and_parent_counts_match_uncached_methods(case):
    inst, env = fresh_env(case)
    _, plain = fresh_env(case)
    enumerate_dag(inst, env)  # fills both caches the way the oracle does
    states = reachable_states(plain)
    assert len(states) > 1
    for state in states:
        children = env.children(state)
        assert (children is None) == plain.is_terminal(state)
        if children is not None:
            assert children == [(a, plain.apply(state, a)) for a in plain.valid_actions(state)]
            assert env.children(state) is children
        if plain.parent_mode == "exact" and state != plain.s0:
            assert env.cached_parent_count(state) == plain.parent_count(state)


@pytest.mark.parametrize("case", CASES)
def test_oracle_is_bit_identical_to_per_trajectory_walk(case):
    inst, ref_env = fresh_env(case)
    params = random_params("linear", ref_env, seed=3)
    ref = reference_enumerate_dag(inst, ref_env, cap=10**6)
    ref_policy = reference_policy_terminal_dist(params, ref_env, cap=10**6)
    ref_tv = tv_distance(ref_policy, ref.target_terminal_dist)
    n = ref.n_trajectories
    caps = (n // 2, n - 1)
    assert min(caps) >= 1
    ref_partials = [
        (_partial_count(lambda: reference_enumerate_dag(inst, ref_env, cap)),
         _partial_count(lambda: reference_policy_terminal_dist(params, ref_env, cap)))
        for cap in caps
    ]

    def check_full(env):
        # a cap equal to the trajectory count must not trip
        summary = enumerate_dag(inst, env, cap=n)
        policy = policy_terminal_dist(params, inst, env, cap=n)
        assert summary.Z == ref.Z
        assert summary.trajectories == ref.trajectories
        assert summary.target_terminal_dist == ref.target_terminal_dist
        assert summary.target_traj_dist == ref.target_traj_dist
        assert policy == ref_policy
        assert tv_distance(policy, summary.target_terminal_dist) == ref_tv

    def check_capped(env):
        for cap, partials in zip(caps, ref_partials):
            assert (
                _partial_count(lambda: enumerate_dag(inst, env, cap)),
                _partial_count(lambda: policy_terminal_dist(params, inst, env, cap)),
            ) == partials

    _, env = fresh_env(case)
    check_full(env)
    check_full(env)  # every cache filled by the first pass
    check_capped(env)
    _, env = fresh_env(case)
    check_capped(env)
    check_full(env)  # caches filled only as far as the capped walks got
