import math

import numpy as np
import pytest

from flowseek.environments import replay_trajectory
from flowseek.errors import EmptyBufferError
from flowseek.exploration import (
    ExplorationSchedule,
    ReplayBuffer,
    buffer_insert,
    buffer_sample,
    local_search,
    sample_trajectory_mixed,
)
from flowseek.flow_core import Trajectory
from flowseek.policy import PolicyParams, trajectory_logpf_and_grad
from flowseek.rngutil import substream


def make_traj(instance_id, actions, reward):
    states = ["s"] + [f"s{i}" for i in range(len(actions))]
    return Trajectory(instance_id, states, list(actions), reward=reward, is_complete=True)


def test_schedule_endpoints_exact():
    sched = ExplorationSchedule(total_iterations=500)
    assert sched.at(0) == (0.3, 1.0, 0.3)
    assert sched.at(500) == (0.01, 2.0, 0.5)
    assert sched.at(10_000) == (0.01, 2.0, 0.5)  # clamped past the end
    mid = sched.at(250)
    assert mid[0] == pytest.approx((0.3 + 0.01) / 2)


@pytest.mark.parametrize("name, value", [
    ("eps_start", -0.5), ("eps_end", 1.01), ("replay_prob_start", 1.5),
    ("replay_prob_end", -0.1), ("beta_start", -1.0), ("beta_end", -1e-9),
])
def test_schedule_out_of_range_is_refused_when_built(name, value):
    with pytest.raises(ValueError, match=f"^{name} must"):
        ExplorationSchedule(**{name: value})


def test_schedule_range_ends_are_accepted():
    sched = ExplorationSchedule(eps_start=0.0, eps_end=1.0, replay_prob_start=1.0,
                                replay_prob_end=0.0, beta_start=0.0, beta_end=0.0)
    assert sched.at(0) == (0.0, 0.0, 1.0)


def test_eps_one_is_uniform_rollout(toy_env):
    # with a degenerate policy, eps=1 still explores both branches uniformly
    params, tab = biased_params_tab(toy_env, "left", 50.0)
    counts = {"left": 0, "right": 0}
    for k in range(400):
        traj = sample_trajectory_mixed(params, tab, 1.0, 1.0, substream(k, "e1t"))
        counts[traj.actions[0]] += 1
    assert counts["right"] > 120


def biased_params_tab(env, action, weight):
    from flowseek.environments import TabularEnv, TabularIndex

    table = TabularIndex.build([env])
    tab = TabularEnv(env, table)
    vec = np.zeros(table.dim)
    vec[table.index[(env.goal, "s0", action)]] = weight
    return PolicyParams("linear", table.dim, 64, vec), tab


def test_eps_zero_beta_one_is_on_policy(toy_env):
    params, tab = biased_params_tab(toy_env, "left", 50.0)
    for k in range(20):
        traj = sample_trajectory_mixed(params, tab, 0.0, 1.0, substream(k, "e0"))
        assert traj.actions[0] == "left"  # P(left) ~ 1 under the degenerate policy
        terms, _ = trajectory_logpf_and_grad(params, traj, tab)
        assert terms[0] == pytest.approx(0.0, abs=1e-20)


def test_eps_half_mixing_frequency_binomial(toy_env):
    # prob 1 on action A, eps = 0.5 -> P(A) = 0.5 + 0.5 * 0.5 = 0.75
    params, tab = biased_params_tab(toy_env, "left", 50.0)
    n = 4000
    hits = 0
    rng = substream(99, "mix")
    for _ in range(n):
        traj = sample_trajectory_mixed(params, tab, 0.5, 1.0, rng)
        hits += traj.actions[0] == "left"
    p_hat = hits / n
    sigma = math.sqrt(0.75 * 0.25 / n)
    assert abs(p_hat - 0.75) < 3 * sigma


def test_tempering_flattens(toy_env):
    params, tab = biased_params_tab(toy_env, "left", 3.0)
    freq = {1.0: 0, 8.0: 0}
    for beta in freq:
        rng = substream(5, "temper", beta)
        for _ in range(600):
            traj = sample_trajectory_mixed(params, tab, 0.0, beta, rng)
            freq[beta] += traj.actions[0] == "right"
    assert freq[8.0] > freq[1.0] * 2  # higher temperature explores the weak action more


def test_beta_zero_is_greedy_with_ties_to_first(toy_env):
    params, tab = biased_params_tab(toy_env, "right", 2.0)
    for k in range(5):
        traj = sample_trajectory_mixed(params, tab, 0.0, 0.0, substream(k, "greedy"))
        assert traj.actions[0] == "right"
    # zero parameters tie every logit, so the first action wins
    zero = PolicyParams("linear", tab.feature_dim, 64, np.zeros(tab.feature_dim))
    traj = sample_trajectory_mixed(zero, tab, 0.0, 0.0, substream(0, "tie"))
    assert traj.actions[0] == "left"
    assert trajectory_logpf_and_grad(zero, traj, tab)[0][0] == pytest.approx(math.log(0.5))


def test_negative_beta_rejected(toy_env):
    params = PolicyParams("linear", toy_env.feature_dim, 64, np.zeros(toy_env.feature_dim))
    with pytest.raises(ValueError, match="beta"):
        sample_trajectory_mixed(params, toy_env, 0.0, -0.5, substream(0, "neg"))


def test_buffer_dedup_and_eviction():
    buf = ReplayBuffer(capacity=2)
    t1 = make_traj("i", ["a"], 1.0)
    buffer_insert(buf, t1)
    buffer_insert(buf, make_traj("i", ["a"], 1.0))  # duplicate key
    assert len(buf) == 1
    buffer_insert(buf, make_traj("i", ["b"], 5.0))
    buffer_insert(buf, make_traj("i", ["c"], 3.0))
    assert len(buf) == 2
    assert sorted(buf.pools["i"][1]) == [3.0, 5.0]


def test_buffer_eviction_matches_first_lowest_priority():
    # reference: the victim is the first entry with the lowest priority
    rng = substream(4, "evict")
    buf = ReplayBuffer(capacity=6)
    expected = []
    for n in range(300):
        traj = make_traj("i", [f"a{n}"], float(rng.integers(1, 5)))  # few values: many ties
        buffer_insert(buf, traj)
        expected.append(traj)
        if len(expected) > buf.capacity:
            expected.pop(min(range(len(expected)), key=lambda i: expected[i].reward))
        assert buf.pools["i"][0] == expected


def test_buffer_log_reward_priority():
    buf = ReplayBuffer(capacity=4, priority_mode="log_reward")
    buffer_insert(buf, make_traj("i", ["a"], math.e - 1.0))
    assert buf.pools["i"][1][0] == pytest.approx(1.0)


def test_buffer_sample_single_entry_and_empty():
    buf = ReplayBuffer(capacity=4)
    with pytest.raises(EmptyBufferError):
        buffer_sample(buf, 1, substream(0), instance_id="i")
    t = make_traj("i", ["a"], 2.0)
    buffer_insert(buf, t)
    out = buffer_sample(buf, 3, substream(0), instance_id="i")
    assert all(o is t for o in out)
    with pytest.raises(EmptyBufferError):
        buffer_sample(buf, 1, substream(0), instance_id="other")


def test_buffer_sample_proportional_chi_square():
    from scipy import stats

    buf = ReplayBuffer(capacity=4)
    buffer_insert(buf, make_traj("i", ["hi"], 3.0))
    buffer_insert(buf, make_traj("i", ["lo"], 1.0))
    rng = substream(7, "prb")
    counts = {"hi": 0, "lo": 0}
    n = 10_000
    for traj in buffer_sample(buf, n, rng, instance_id="i"):
        counts[traj.actions[0]] += 1
    chi2, p = stats.chisquare([counts["hi"], counts["lo"]], [0.75 * n, 0.25 * n])
    assert p > 0.01


def test_buffer_uniform_when_priorities_equal():
    buf = ReplayBuffer(capacity=4)
    buffer_insert(buf, make_traj("i", ["a"], 2.0))
    buffer_insert(buf, make_traj("i", ["b"], 2.0))
    counts = {"a": 0, "b": 0}
    for traj in buffer_sample(buf, 2000, substream(8, "uni"), instance_id="i"):
        counts[traj.actions[0]] += 1
    assert abs(counts["a"] - 1000) < 3 * math.sqrt(2000 * 0.25)


def test_buffer_pools_evict_within_their_instance():
    buf = ReplayBuffer(capacity=2)
    low = [make_traj("low", [a], 0.1) for a in ("a", "b")]
    for traj in low:
        buffer_insert(buf, traj)
    for n in range(50):
        buffer_insert(buf, make_traj("high", [f"a{n}"], 10.0 + n))
    assert buf.pools["low"] == (low, [0.1, 0.1])
    assert buf.pools["high"][1] == [58.0, 59.0]
    assert len(buf) == 4
    assert all(t.instance_id == "low" for t in buffer_sample(buf, 20, substream(3), "low"))


class EntriesBuffer:
    """Reference: the buffer as one (traj, priority) record per entry in insertion order;
    past capacity, the first lowest-priority entry of the inserted trajectory's instance goes."""

    def __init__(self, capacity, priority_mode):
        self.capacity = capacity
        self.priority_mode = priority_mode
        self.entries = []
        self.keys = set()
        self.tied_evictions = 0  # evictions with more than one lowest-priority entry

    def insert(self, traj):
        key = (traj.instance_id, tuple(traj.actions))
        if key in self.keys:
            return
        log = self.priority_mode == "log_reward"
        self.entries.append((traj, math.log1p(traj.reward) if log else traj.reward))
        self.keys.add(key)
        same = [j for j, (t, _) in enumerate(self.entries) if t.instance_id == traj.instance_id]
        if len(same) > self.capacity:
            priorities = [self.entries[j][1] for j in same]
            self.tied_evictions += priorities.count(min(priorities)) > 1
            evicted, _ = self.entries.pop(same[priorities.index(min(priorities))])
            self.keys.discard((evicted.instance_id, tuple(evicted.actions)))

    def sample(self, count, rng, instance_id):
        pool = [e for e in self.entries if e[0].instance_id == instance_id]
        priorities = np.array([p for _, p in pool], dtype=np.float64)
        idx = rng.choice(len(pool), size=count, replace=True, p=priorities / priorities.sum())
        return [pool[int(i)][0] for i in idx]


@pytest.mark.parametrize("mode", ["reward", "log_reward"])
def test_buffer_draws_match_entries_reference(mode):
    ids = ["i0", "i1", "i2"]
    rng = substream(9, "pin-insert", mode)
    buf = ReplayBuffer(capacity=12, priority_mode=mode)
    ref = EntriesBuffer(12, mode)
    for _ in range(400):
        # 60 action names per instance: duplicates; rewards 1..4: tied priorities
        iid = ids[int(rng.integers(3))]
        traj = make_traj(iid, [f"a{int(rng.integers(60))}"], float(rng.integers(1, 5)))
        buffer_insert(buf, traj)
        ref.insert(traj)
        assert len(buf) == len(ref.entries)
        for iid, (trajs, priorities) in buf.pools.items():
            pool = [(t, p) for t, p in ref.entries if t.instance_id == iid]
            assert [id(t) for t in trajs] == [id(t) for t, _ in pool]
            assert priorities == [p for _, p in pool]
    assert ref.tied_evictions > 0
    for iid in ids:
        assert buf.pools[iid][0]
        for draw in range(200):
            got = buffer_sample(buf, 4, substream(9, "pin-draw", mode, iid, draw), instance_id=iid)
            want = ref.sample(4, substream(9, "pin-draw", mode, iid, draw), iid)
            assert [id(t) for t in got] == [id(t) for t in want]


def test_local_search_strict_improvement_and_prefix(toy_env):
    # base trajectory ends at the low-reward terminal; improvements must be strict
    base = replay_trajectory(toy_env, ["left", "go"])
    assert base.reward == pytest.approx(1.0)
    found = local_search(base, toy_env, num_recon=8, k_mode="uniform", rng=substream(3, "ls"))
    for cand in found:
        assert cand.reward > base.reward
        k = base.n_steps - shared_prefix_len(base, cand)
        assert 1 <= k <= base.n_steps - 1
        replayed = replay_trajectory(toy_env, cand.actions)
        assert replayed.reward == pytest.approx(cand.reward)
        assert replayed.states == cand.states


def shared_prefix_len(a, b):
    n = 0
    for x, y in zip(a.actions, b.actions):
        if x != y:
            break
        n += 1
    return n


def test_local_search_on_maximal_trajectory_returns_empty(toy_env):
    from conftest import reference_enumerate_dag

    ref = reference_enumerate_dag(toy_env.instance, toy_env)
    best_actions = max(ref.trajectories, key=lambda t: t[2])[0]
    best = replay_trajectory(toy_env, list(best_actions))
    found = local_search(best, toy_env, num_recon=16, k_mode="uniform", rng=substream(4, "max"))
    assert found == []  # oracle confirms no trajectory beats it


def test_local_search_full_reroll_boundary(toy_env):
    base = replay_trajectory(toy_env, ["left", "go"])
    found = local_search(base, toy_env, num_recon=16, k_mode=base.n_steps, rng=substream(5, "kn"))
    for cand in found:
        assert cand.states[0] == base.states[0]  # prefix at K = n is just s0
        assert cand.reward > base.reward


# -- the two rollout loops that `_rollout` replaced, kept as references ----------


def reference_sample_action(dist, beta, rng):
    shifted = dist.logits / beta
    shifted = shifted - shifted.max()
    probs = np.exp(shifted - math.log(np.exp(shifted).sum()))
    probs /= probs.sum()
    return dist.action_ids[int(rng.choice(len(probs), p=probs))]


def reference_sample_trajectory_mixed(params, env, eps, beta, rng):
    """The rollout and the log P_F term of each of its steps."""
    from flowseek.policy import action_logits

    state = env.s0
    states = [state]
    actions = []
    logpf = []
    while not env.is_terminal(state):
        dist = action_logits(params, state, env)
        if rng.random() < eps:
            action = dist.action_ids[int(rng.integers(len(dist.action_ids)))]
        elif beta == 0.0:
            action = dist.action_ids[int(np.argmax(dist.logits))]
        else:
            action = reference_sample_action(dist, beta, rng)
        logpf.append(float(dist.log_probs[dist.action_ids.index(action)]))
        state = env.apply(state, action)
        states.append(state)
        actions.append(action)
    traj = Trajectory(env.instance.instance_id, states, actions, is_complete=True)
    traj.reward = env.reward(traj)
    return traj, logpf


def reference_local_search(traj_best, env, num_recon, k_mode, rng):
    n = traj_best.n_steps
    if n < 1:
        return []
    candidates = []
    for _ in range(num_recon):
        if k_mode == "uniform":
            if n < 2:
                return []
            k = int(rng.integers(1, n))
        else:
            k = min(int(k_mode), n)
        states = list(traj_best.states[: n - k + 1])
        actions = list(traj_best.actions[: n - k])
        state = states[-1]
        while not env.is_terminal(state):
            options = env.cached_valid_actions(state)
            action = options[int(rng.integers(len(options)))]
            state = env.apply(state, action)
            states.append(state)
            actions.append(action)
        cand = Trajectory(traj_best.instance_id, states, actions, is_complete=True)
        cand.reward = env.reward(cand)
        if cand.reward > traj_best.reward:
            candidates.append(cand)
    return candidates


ROLLOUT_INSTANCES = {
    "cube2x2": ("cube2x2", "2"),
    "blocksworld": ("blocksworld", "4"),
    "game24": ("game24", None),
}


def paired_envs(name):
    """Four instances, each with one env per implementation."""
    from flowseek.environments import generate_instances, make_env

    env_id, difficulty = ROLLOUT_INSTANCES[name]
    instances = generate_instances(env_id, 4, seed=3, difficulty=difficulty)
    return [(make_env(inst), make_env(inst)) for inst in instances]


def same_trajectory(got, want):
    return (got.instance_id, got.states, got.actions, got.reward,
            got.is_complete) == (want.instance_id, want.states, want.actions,
                                 want.reward, want.is_complete)


@pytest.mark.parametrize("name", sorted(ROLLOUT_INSTANCES))
def test_sample_trajectory_mixed_matches_reference_loop(name):
    from conftest import random_params

    envs = paired_envs(name)
    params = [random_params("mlp", env, hidden=4, seed=j) for j, (env, _) in enumerate(envs)]
    for k in range(200):
        j = k % len(envs)
        eps, beta = (0.0, 0.3, 1.0)[k % 3], (0.0, 0.5, 1.0, 2.0)[k % 4]
        rng, ref_rng = substream(k, "mixed", name), substream(k, "mixed", name)
        got = sample_trajectory_mixed(params[j], envs[j][0], eps, beta, rng)
        want, want_terms = reference_sample_trajectory_mixed(params[j], envs[j][1], eps, beta,
                                                             ref_rng)
        assert same_trajectory(got, want), k
        assert trajectory_logpf_and_grad(params[j], got, envs[j][0])[0] == want_terms, k
        assert rng.random() == ref_rng.random()  # both drew the same numbers


@pytest.mark.parametrize("name", sorted(ROLLOUT_INSTANCES))
def test_local_search_matches_reference_loop(name):
    from conftest import rollout

    envs = paired_envs(name)
    accepted = 0
    for k in range(200):
        env, ref_env = envs[k % len(envs)]
        base = rollout(env, seed=k, tag=f"ls-base-{name}")
        k_mode = ("uniform", 1, 2, base.n_steps + 1)[k % 4]
        rng, ref_rng = substream(k, "ls", name), substream(k, "ls", name)
        got = local_search(base, env, num_recon=4, k_mode=k_mode, rng=rng)
        want = reference_local_search(base, ref_env, 4, k_mode, ref_rng)
        assert len(got) == len(want), k
        assert all(same_trajectory(g, w) for g, w in zip(got, want)), k
        assert rng.random() == ref_rng.random()
        accepted += len(got)
    assert accepted > 0
