import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowseek.environments import make_env
from flowseek.environments.base import EnvInstance
from flowseek.environments.game24 import make_instance, solve_game24
from flowseek.environments.toydag import generate_instances, make_graph_goal
from flowseek.errors import EnumerationCapError, StructuralError
from flowseek.oracle import (
    enumerate_dag,
    policy_terminal_dist,
    tv_distance,
    write_offline_game24,
)
from flowseek.policy import init_params

from conftest import random_params, reference_enumerate_dag


def test_toy_dag_target_distribution(toy_instance, toy_env):
    summary = enumerate_dag(toy_instance, toy_env)
    assert summary.Z == pytest.approx(4.0)
    assert summary.target_terminal_dist == pytest.approx({"t_low": 0.25, "t_high": 0.75})
    assert summary.n_trajectories == 2
    assert sum(summary.target_terminal_dist.values()) == pytest.approx(1.0, abs=1e-9)


def test_single_trajectory_instance_mass_one():
    from flowseek.environments.base import EnvInstance
    from flowseek.environments.toydag import make_graph_goal

    goal = make_graph_goal({"s0": {"a": "t"}}, {"t": 2.0})
    inst = EnvInstance("toydag", "single", "s0", goal, 1)
    env = make_env(inst)
    summary = enumerate_dag(inst, env)
    assert summary.target_terminal_dist == {"t": 1.0}
    params = init_params("linear", env.feature_dim)
    assert policy_terminal_dist(params, inst, env) == {"t": pytest.approx(1.0)}


def test_diamond_merging_splits_by_backward_flow(diamond_env):
    inst, env = diamond_env
    summary = enumerate_dag(inst, env)
    # both terminals are reached by two trajectories; |Pa(x)| = 2 splits the mass
    assert summary.Z == pytest.approx(4.0)
    assert summary.target_terminal_dist == pytest.approx({"t1": 0.25, "t3": 0.75})
    ref = reference_enumerate_dag(inst, env)
    assert ref.target_traj_dist[("a", "c", "d")] == pytest.approx(0.125)
    assert ref.target_traj_dist[("b", "c", "e")] == pytest.approx(0.375)


# 100 generated instances; seeds whose graphs hold states s0 cannot reach included
GENERATED_TOYDAGS = [inst for seed in range(20) for inst in generate_instances(5, seed)]


def in_dag_parents(env):
    """state -> the states s0 reaches with an edge into it, once per edge."""
    parents = {}
    seen = {env.s0}
    stack = [env.s0]
    while stack:
        state = stack.pop()
        for _, child in env.children(state) or ():
            parents.setdefault(child, []).append(state)
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return parents


def test_toydag_parent_counts_are_in_dag_parents():
    for inst in GENERATED_TOYDAGS:
        env = make_env(inst)
        for state, parents in in_dag_parents(env).items():
            assert env.cached_parent_count(state) == len(parents), (inst.instance_id, state)


def test_toydag_partition_value_is_the_sum_of_terminal_rewards():
    # uniform P_B over in-DAG parents sends each terminal's whole reward back to s0
    for inst in GENERATED_TOYDAGS:
        env = make_env(inst)
        assert enumerate_dag(inst, env).Z == pytest.approx(sum(env.rewards.values()), rel=1e-12)


def test_toydag_counts_a_parent_per_edge():
    # two actions of s0 lead to c: each edge is a way in, so c has two parents
    # and P_B sends half of c's flow back along each; one parent would double it
    from flowseek.environments.base import EnvInstance
    from flowseek.environments.toydag import make_graph_goal

    edges = {"s0": {"a1": "c", "a2": "c", "b": "t2"}, "c": {"x": "t1"}}
    inst = EnvInstance("toydag", "two-edges", "s0",
                       make_graph_goal(edges, {"t1": 1.0, "t2": 1.0}), 2)
    env = make_env(inst)
    assert env.parent_count("c") == 2 and len(in_dag_parents(env)["c"]) == 2
    summary = enumerate_dag(inst, env)
    assert summary.Z == 2.0 == sum(env.rewards.values())
    assert summary.target_terminal_dist == {"t1": 0.5, "t2": 0.5}
    assert reference_enumerate_dag(inst, env).Z == pytest.approx(2.0, rel=1e-12)


def graph_instance(edges, rewards, instance_id="g"):
    return EnvInstance("toydag", instance_id, "s0", make_graph_goal(edges, rewards), 3)


CYCLIC_GRAPHS = {
    "through-s0": {"s0": {"a": "b", "t": "t1"}, "b": {"c": "s0"}},
    "below-s0": {"s0": {"a": "b"}, "b": {"c": "d", "t": "t1"}, "d": {"e": "b"}},
    "self-loop": {"s0": {"a": "b", "t": "t1"}, "b": {"c": "b"}},
}


@pytest.mark.parametrize("name", sorted(CYCLIC_GRAPHS))
def test_toydag_cycle_that_s0_reaches_is_refused_at_parse_time(name):
    with pytest.raises(StructuralError, match="instance cyc: the graph has a cycle"):
        make_env(graph_instance(CYCLIC_GRAPHS[name], {"t1": 1.0}, "cyc"))


def test_toydag_cycle_that_s0_does_not_reach_is_kept_off_the_dag():
    edges = {"s0": {"a": "t1", "b": "t2"}, "x": {"c": "y"}, "y": {"d": "x"}}
    inst = graph_instance(edges, {"t1": 1.0, "t2": 3.0})
    assert enumerate_dag(inst, make_env(inst)).target_terminal_dist == {"t1": 0.25, "t2": 0.75}


@pytest.mark.parametrize("value", ["high", "2.5", float("nan"), float("inf"), True, None])
def test_toydag_reward_that_is_no_finite_number_is_refused_at_parse_time(value):
    with pytest.raises(StructuralError, match="instance bad: the reward of 't1'"):
        make_env(graph_instance({"s0": {"a": "t1"}}, {"t1": value}, "bad"))


def second_enumerator(env):
    """Independent recursive implementation with a different data layout."""
    results = {"paths": 0, "terminals": {}}

    def recurse(state, logshare):
        if env.is_terminal(state):
            results["paths"] += 1
            results["terminals"][state] = results["terminals"].get(state, 0) + 1
            return
        for action in env.valid_actions(state):
            recurse(env.apply(state, action), logshare)

    recurse(env.s0, 0.0)
    return results


def test_game24_counts_match_second_enumerator():
    inst = make_instance([4, 4, 6, 8], "cross")
    env = make_env(inst)
    summary = enumerate_dag(inst, env)
    independent = second_enumerator(env)
    assert summary.n_trajectories == independent["paths"]
    assert summary.n_terminals == len(independent["terminals"])
    solutions = {k for k in solve_game24([4, 4, 6, 8])}
    ref = reference_enumerate_dag(inst, env)
    successful = {
        t for (actions, t, r) in ref.trajectories if r > 100.0
    }
    assert len(successful) == len(
        {";".join(a) for (a, t, r) in ref.trajectories if r > 100.0}
    )
    assert {";".join(a) for (a, t, r) in ref.trajectories if r > 100.0} == solutions


def test_toydag_counts_match_second_enumerator():
    for seed in (1, 2, 3):
        inst = generate_instances(1, seed=seed)[0]
        env = make_env(inst)
        summary = enumerate_dag(inst, env)
        independent = second_enumerator(env)
        assert summary.n_trajectories == independent["paths"]
        assert summary.n_terminals == len(independent["terminals"])


def test_uniform_policy_dist_matches_product_of_uniforms():
    # closed-form recount on a three-level toy DAG
    inst = generate_instances(1, seed=55)[0]
    env = make_env(inst)
    params = init_params("linear", env.feature_dim)
    dist = policy_terminal_dist(params, inst, env)

    expected = {}

    def recurse(state, prob):
        if env.is_terminal(state):
            expected[state] = expected.get(state, 0.0) + prob
            return
        actions = env.valid_actions(state)
        for action in actions:
            recurse(env.apply(state, action), prob / len(actions))

    recurse(env.s0, 1.0)
    assert set(dist) == set(expected)
    for key in expected:
        assert dist[key] == pytest.approx(expected[key], abs=1e-12)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


def test_policy_dist_sums_to_one_for_random_params(toy_instance, toy_env):
    params = random_params("mlp", toy_env, hidden=4, seed=77)
    dist = policy_terminal_dist(params, toy_instance, toy_env)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


def test_tv_distance_examples():
    assert tv_distance({"a": 1.0}, {"a": 1.0}) == 0.0
    assert tv_distance({"a": 1.0}, {"b": 1.0}) == pytest.approx(1.0)
    assert tv_distance({"a": 0.25, "b": 0.75}, {"a": 0.5, "b": 0.5}) == pytest.approx(0.25)


@settings(max_examples=40, deadline=None)
@given(
    p=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
    q=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
)
def test_tv_distance_bounds(p, q):
    def norm(vals):
        total = sum(vals) or 1.0
        return {str(i): v / total for i, v in enumerate(vals)}

    d = tv_distance(norm(p), norm(q))
    assert -1e-12 <= d <= 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    masses=st.dictionaries(
        st.text(min_size=1, max_size=4),
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.booleans(), st.booleans()),
        min_size=1, max_size=12,
    ),
    orders=st.lists(st.randoms(use_true_random=False), min_size=1, max_size=4),
)
def test_tv_distance_does_not_depend_on_insertion_order(masses, orders):
    # each key is in p, in q or in both; fsum rounds once, so any order of
    # the key union gives the bits of the sum over sorted keys
    p = {k: a for k, (a, _, in_p, in_q) in masses.items() if in_p or not in_q}
    q = {k: b for k, (_, b, in_p, in_q) in masses.items() if in_q}
    keys = sorted(p.keys() | q.keys())
    want = 0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)
    assert tv_distance(p, q).hex() == want.hex()
    for rng in orders:
        shuffled = [list(p.items()), list(q.items())]
        for items in shuffled:
            rng.shuffle(items)
        assert tv_distance(*map(dict, shuffled)).hex() == want.hex()


def test_enumeration_cap():
    inst = make_instance([4, 4, 6, 8], "cap")
    env = make_env(inst)
    with pytest.raises(EnumerationCapError) as err:
        enumerate_dag(inst, env, cap=10)
    assert err.value.partial_count > 10


def test_generated_instances_admit_a_success_by_enumeration():
    # generation-time guarantee, re-verified here with the exhaustive oracle
    from flowseek.environments import generate_instances as gen

    small = (
        gen("game24", 2, seed=81)
        + gen("arc1d", 2, seed=81)
        + gen("logicchain", 2, seed=81, difficulty="3")
    )
    for inst in small:
        env = make_env(inst)
        ref = reference_enumerate_dag(inst, env, cap=300_000)
        assert any(r >= 100.0 - 1e-9 for (_, _, r) in ref.trajectories), inst.instance_id


def test_offline_writer_replayable(tmp_path):
    import json

    from flowseek.environments import replay_trajectory

    insts = [make_instance([4, 4, 6, 8], "off-1"), make_instance([1, 3, 5, 6], "off-2")]
    path = tmp_path / "offline.jsonl"
    n = write_offline_game24(path, insts)
    assert n > 0
    envs = {i.instance_id: make_env(i) for i in insts}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            traj = replay_trajectory(envs[rec["instance_id"]], rec["actions"])
            env = envs[rec["instance_id"]]
            assert env.is_success(traj)
