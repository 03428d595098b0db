"""The per-env DAG walk (`Environment.dag`) and the oracle passes built on it.

The `Dag`'s rows and parent counts are checked over every reachable state
against the uncached methods of a fresh env. The oracle is checked against
test-local per-trajectory walkers, which call `valid_actions`/`apply`/
`parent_count` once per trajectory and so share nothing across merging paths.
Tree mode must match them bit for bit. Exact mode's forward pass sums floats
in another order, so its Z, target mass, policy mass and TV must match to a
relative 1e-12 (`test_reward_fold.py` pins their bits), while trajectory
counts, terminal sets and cap partial counts stay exact. The exact-mode
reward fold is checked bit for bit against copies of the per-env loops it
replaced.
"""

import dataclasses
import math

import numpy as np
import pytest

from flowseek.environments import TabularEnv, TabularIndex, generate_instances, make_env
from flowseek.environments.base import EnvInstance
from flowseek.environments.blocksworld import _goal_met
from flowseek.environments.cube2x2 import distance_to_solved
from flowseek.environments.game24 import make_instance
from flowseek.environments.toydag import make_graph_goal
from flowseek.errors import EnumerationCapError
from flowseek.oracle import enumerate_dag, policy_terminal_dist, tv_distance
from flowseek.policy import action_logits

from conftest import (diamond_instance, random_params, reference_enumerate_dag, rollout,
                      walk_trajectories)


def skip_edge_instance():
    """x is reached from s0 in one step and in two, t1 in two steps and in three."""
    edges = {
        "s0": {"a": "x", "b": "p"},
        "p": {"c": "x", "f": "t1"},
        "x": {"d": "t1", "e": "t3"},
    }
    goal = make_graph_goal(edges, {"t1": 1.0, "t3": 3.0})
    return EnvInstance("toydag", "toy-skip", "s0", goal, 3)


INSTANCES = {
    "toydag-diamond": diamond_instance(),
    "toydag-gen": generate_instances("toydag", 1, seed=5)[0],
    "toydag-skip": skip_edge_instance(),
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
# with no intermediate weight every failed trajectory gets the floor reward
INSTANCES["blocksworld-4-floor"] = INSTANCES["blocksworld-4"]
INSTANCES["game24-progress"] = INSTANCES["game24"]
INSTANCES["blocksworld-4-progress"] = INSTANCES["blocksworld-4"]
SETTINGS = {"blocksworld-4-floor": {"intermediate_weight": 0.0},
            "game24-progress": {"scorer": "progress"},
            "blocksworld-4-progress": {"scorer": "progress"}}
CASES = sorted(INSTANCES) + ["tabular-blocksworld-2"]


def fresh_env(case):
    """A new env for `case`, with empty caches."""
    if case.startswith("tabular-"):
        inst = INSTANCES[case[len("tabular-"):]]
        # the table is built on another env, so the wrapped one starts empty
        table = TabularIndex.build([make_env(inst)])
        return inst, TabularEnv(make_env(inst), table)
    inst = INSTANCES[case]
    return inst, make_env(inst, **SETTINGS.get(case, {}))


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


# -- the parent's per-trajectory policy walker, kept as the reference -----------


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
    enumerate_dag(inst, env)  # fills the parent counts the way the oracle does
    states = reachable_states(plain)
    assert len(states) > 1
    for state in states:
        children = env.children(state)
        assert (children is None) == plain.is_terminal(state)
        if children is not None:
            assert children == [(a, plain.apply(state, a)) for a in plain.valid_actions(state)]
        if plain.parent_mode == "exact" and state != plain.s0:
            assert env.cached_parent_count(state) == plain.parent_count(state)


@pytest.mark.parametrize("case", CASES)
def test_dag_rows_match_a_fresh_env(case):
    inst, env = fresh_env(case)
    _, plain = fresh_env(case)
    counted = []
    count_calls(env, "parent_count", counted)
    dag = env.dag(10**6)
    states = dag.states
    assert states[0] == plain.s0 and len(set(states)) == len(states) > 1
    assert len(dag.offsets) == len(states) + 1 and len(dag.parents) == len(states)
    assert dag.offsets[0] == 0 and len(dag.child) == dag.offsets[-1]
    for i, state in enumerate(states):
        first, last = dag.offsets[i], dag.offsets[i + 1]
        kids = dag.child[first:last]
        assert all(c > i for c in kids)  # ids are a topological order
        assert (first == last) == plain.is_terminal(state)
        if first < last:
            assert [states[c] for c in kids] == [plain.apply(state, a)
                                                 for a in plain.valid_actions(state)]
        if plain.parent_mode == "exact" and i > 0:
            assert dag.parents[i] == plain.parent_count(state)
    assert dag.parents[0] == 1
    if plain.parent_mode == "tree":
        assert dag.parents == [1] * len(states) and counted == []
    walked = {state for _, path in walk_trajectories(plain, 10**6) for state in path}
    assert set(states) == walked
    assert dag.n_trajectories == reference_enumerate_dag(inst, plain).n_trajectories


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
    tree = ref_env.parent_mode == "tree"

    def same(got, want):
        # bit identity in tree mode; exact mode's forward pass reorders the float sums
        return got == want if tree else math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)

    def check_full(env):
        # a cap equal to the trajectory count must not trip
        summary = enumerate_dag(inst, env, cap=n)
        policy = policy_terminal_dist(params, inst, env, cap=n)
        assert summary.n_trajectories == ref.n_trajectories
        assert summary.target_terminal_dist.keys() == ref.target_terminal_dist.keys()
        if tree:  # the target is filled in walk order too
            assert list(summary.target_terminal_dist) == list(ref.target_terminal_dist)
        assert policy.keys() == ref_policy.keys()
        assert same(summary.Z, ref.Z)
        for x, mass in ref.target_terminal_dist.items():
            assert same(summary.target_terminal_dist[x], mass)
        for x, mass in ref_policy.items():
            assert same(policy[x], mass)
        assert same(tv_distance(policy, summary.target_terminal_dist), ref_tv)

    def check_capped(env):
        for cap, partials in zip(caps, ref_partials):
            assert (
                _partial_count(lambda: enumerate_dag(inst, env, cap)),
                _partial_count(lambda: policy_terminal_dist(params, inst, env, cap)),
            ) == partials

    _, env = fresh_env(case)
    check_full(env)
    check_full(env)  # the DAG walked by the first pass
    check_capped(env)
    _, env = fresh_env(case)
    check_capped(env)
    check_full(env)  # capped walks store nothing


def test_cap_stops_a_full_budget_cube_early():
    # a two-move scramble at the default budget of 11 has billions of
    # trajectories; the count passes the cap long before every state is expanded
    inst = generate_instances("cube2x2", 1, seed=7, difficulty="2")[0]
    env = make_env(inst)
    params = random_params("linear", env, seed=3)
    expanded = []
    children = env.children
    env.children = lambda state: expanded.append(state) or children(state)
    cap = 10_000
    assert _partial_count(lambda: enumerate_dag(inst, env, cap)) == cap + 1
    assert len(expanded) == len(set(expanded)) < cap
    expanded.clear()
    assert _partial_count(lambda: policy_terminal_dist(params, inst, env, cap)) == cap + 1
    assert len(expanded) < cap


@pytest.mark.parametrize("case", ["game24", "tabular-game24"])
def test_policy_pass_scores_each_decision_key_once(case, monkeypatch):
    from flowseek import oracle

    inst, env = fresh_env(case)
    params = random_params("linear", env, seed=3)
    scored = []
    real = oracle.action_logits

    def counting(params, state, env):
        scored.append(env.decision_key(state))
        return real(params, state, env)

    monkeypatch.setattr(oracle, "action_logits", counting)
    policy_terminal_dist(params, inst, env)
    _, plain = fresh_env(case)
    inner = [s for s in reachable_states(plain) if not plain.is_terminal(s)]
    keys = {plain.decision_key(s) for s in inner}
    assert len(scored) == len(set(scored)) == len(keys)
    assert set(scored) == keys
    # game24 states that differ only in history share one decision key; the table's do not
    assert (len(keys) < len(inner)) == (case == "game24")


def count_calls(env, name, calls):
    """Make `env.<name>` append its first argument to `calls` before it runs."""
    method = getattr(env, name)
    setattr(env, name, lambda first, *rest: calls.append(first) or method(first, *rest))


@pytest.mark.parametrize("case", ["game24", "arc1d-3", "logicchain", "blocksworld-4",
                                  "blocksworld-4-floor", "cube2x2-3", "toydag-diamond"])
def test_policy_pass_reuses_the_order_the_target_pass_walked(case):
    # once the target pass has walked the DAG, no pass expands a state or
    # counts its parents again: they read the `Dag`'s rows and `parents`
    inst, env = fresh_env(case)
    params = random_params("linear", env, seed=3)
    summary = enumerate_dag(inst, env)
    calls = []
    for name in ("children", "_walk", "is_terminal", "apply", "parent_count",
                 "cached_parent_count"):
        count_calls(env, name, calls)
    policy = policy_terminal_dist(params, inst, env)
    assert enumerate_dag(inst, env) == summary
    assert calls == []
    assert env.dag(summary.n_trajectories).n_trajectories == summary.n_trajectories
    assert policy.keys() == summary.target_terminal_dist.keys()


@pytest.mark.parametrize("case", ["game24-1568", "blocksworld-4"])
def test_progress_target_pass_applies_no_action(case):
    # `progress` scores a step by the potential of the child the `Dag` holds,
    # so once the walk is done the target pass, which scores each edge once,
    # builds no child again
    if case == "game24-1568":
        inst = make_instance([1, 5, 6, 8], "g24-1568")
    else:
        inst = INSTANCES[case]
    env = make_env(inst, scorer="progress")
    dag = env.dag(10**6)
    applied, potentials = [], []
    count_calls(env, "apply", applied)
    count_calls(env, "potential", potentials)
    enumerate_dag(inst, env)
    assert applied == [] and len(potentials) == 2 * len(dag.child) > 0


def test_game24_walk_reads_each_state_entry_once():
    # game24's `children` builds the child strings from the state's decode
    # entry, so the walk applies no action and asks at most s0 whether it is
    # terminal; the passes over its `Dag` read the entries it mapped
    inst, env = fresh_env("game24")
    params = random_params("linear", env, seed=3)
    applied, asked = [], []
    count_calls(env, "apply", applied)
    count_calls(env, "is_terminal", asked)
    env.dag(10**6)
    assert applied == [] and len(asked) <= 1
    asked.clear()
    enumerate_dag(inst, env)
    policy_terminal_dist(params, inst, env)
    assert applied == asked == []


def test_order_cache_keeps_the_cap_semantics():
    inst, env = fresh_env("game24")
    n = enumerate_dag(*fresh_env("game24")).n_trajectories
    params = random_params("linear", env, seed=3)
    walks = []
    count_calls(env, "_walk", walks)
    # a walk stopped by its cap stores nothing, so a larger cap walks again
    assert _partial_count(lambda: enumerate_dag(inst, env, n - 1)) == n
    assert _partial_count(lambda: policy_terminal_dist(params, inst, env, n - 1)) == n
    assert enumerate_dag(inst, env, n).n_trajectories == n
    assert len(walks) == 3
    # a stored count over a smaller cap raises with partial count cap + 1, unwalked
    for cap in (n - 1, n // 2, 1):
        assert _partial_count(lambda: enumerate_dag(inst, env, cap)) == cap + 1
        assert _partial_count(lambda: policy_terminal_dist(params, inst, env, cap)) == cap + 1
    assert len(policy_terminal_dist(params, inst, env, n)) == n
    assert len(walks) == 3


def cube_config(state):
    """The configuration bytes a `t=<step>|<8 digits>|<8 digits>` cube key spells."""
    _, cp, co = state.split("|")
    return bytes(int(c) for c in cp + co)


def bw_supports(state):
    """The block -> support map a `t=<step>|hand=…|on=…` blocksworld key spells."""
    body = state.split("|on=")[1]
    return dict(item.split(":") for item in body.split(",")) if body else {}


def old_reward_total(env, traj):
    """The per-env reward loops that `Environment.reward` replaced."""
    if env.env_id == "cube2x2":
        success = env.w if env.is_success(traj) else 0.0
        dists = [distance_to_solved(cube_config(s)) for s in traj.states]
        intermediate = 0.0
        for r_prev, r_next in zip(dists[:-1], dists[1:]):
            intermediate += float(np.exp(r_prev - r_next))
        return max(success + intermediate, env.reward_floor)
    if env.env_id == "blocksworld":
        success = env.w if _goal_met(bw_supports(traj.states[-1]), env.goal_relations) else 0.0
        intermediate = 0.0
        for s, child in zip(traj.states[:-1], traj.states[1:]):
            intermediate += -1.0 / math.log(env.step_score(s, child))
        return max(success + env.lam * intermediate, env.reward_floor)
    return max(0.0 + float(env.rewards.get(traj.states[-1], 0.0)), env.reward_floor)


@pytest.mark.parametrize(
    "case", ["cube2x2", "blocksworld-uniform", "blocksworld-progress", "toydag"]
)
def test_reward_fold_matches_per_env_loop(case):
    from flowseek.environments import replay_trajectory

    env_id, _, scorer = case.partition("-")
    difficulty = {"cube2x2": "2", "blocksworld": "6"}.get(env_id)
    for k, inst in enumerate(generate_instances(env_id, 3, seed=11, difficulty=difficulty)):
        for weights in ({}, {"success_weight": 40.0, "intermediate_weight": 2.5}):
            env = make_env(inst, scorer=scorer or "uniform", **weights)
            trajs = [rollout(env, seed=j, tag=f"{case}-{k}") for j in range(20)]
            if inst.gold_solutions:
                gold = inst.gold_solutions[0].split(env.solution_sep)
                trajs.append(replay_trajectory(env, gold))
            assert any(env.is_success(t) for t in trajs)
            for traj in trajs:
                assert env.reward(traj) == old_reward_total(env, traj)


@pytest.mark.parametrize("name", ["blocksworld-4", "game24"])
def test_uniform_step_score_is_scored_once_per_decision_point(name, monkeypatch):
    from flowseek.environments import base

    scored = []
    uniform = base.SCORERS["uniform"]

    def counting_uniform(env, state, child):
        scored.append(env.decision_key(state))
        return uniform(env, state, child)

    monkeypatch.setitem(base.SCORERS, "uniform", counting_uniform)
    inst = INSTANCES[name]
    env = make_env(inst)
    enumerate_dag(inst, env)  # the target pass reads p on every edge
    assert scored and len(scored) == len(set(scored))
    stack = [env.s0]
    while stack:
        state = stack.pop()
        for action, child in env.children(state) or ():
            p = min(max(uniform(env, state, action), base.P_SCORE_MIN), base.P_SCORE_MAX)
            assert env.step_score(state, action) == p
            stack.append(child)
    assert len(scored) == len(set(scored))
