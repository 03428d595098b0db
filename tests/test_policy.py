import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowseek.environments import TabularEnv, TabularIndex, make_env
from flowseek.errors import InvalidActionError
from flowseek.policy import (
    ActionDistribution,
    OptimizerState,
    PolicyParams,
    _log_softmax,
    action_logits,
    apply_update,
    init_params,
    load_checkpoint,
    param_count,
    sample_action,
    save_checkpoint,
    step_logprob_and_grad,
    trajectory_logpf_and_grad,
)
from flowseek.rngutil import substream

from conftest import random_params, two_terminal_instance


def test_zero_params_give_uniform(toy_env):
    params = init_params("linear", toy_env.feature_dim)
    dist = action_logits(params, toy_env.s0, toy_env)
    assert dist.action_ids == ["left", "right"]
    np.testing.assert_allclose(np.exp(dist.log_probs), [0.5, 0.5])


def test_single_valid_action_logprob_zero(toy_env):
    params = random_params("linear", toy_env, seed=1)
    # mid states of the two-terminal tree have exactly one action
    dist = action_logits(params, "mid_l", toy_env)
    assert dist.action_ids == ["go"]
    assert dist.log_probs[0] == pytest.approx(0.0, abs=1e-12)


def test_softmax_shift_invariance():
    logits = np.array([0.3, -1.2, 2.0])
    d1 = ActionDistribution(["a", "b", "c"], logits, None)
    d2 = ActionDistribution(["a", "b", "c"], logits + 7.5, None)
    from flowseek.policy import _log_softmax

    np.testing.assert_allclose(_log_softmax(logits), _log_softmax(logits + 7.5), atol=1e-12)


def test_log_prob_consistency(toy_env):
    params = random_params("mlp", toy_env, hidden=4, seed=5)
    dist = action_logits(params, toy_env.s0, toy_env)
    for i, action in enumerate(dist.action_ids):
        lp, _ = step_logprob_and_grad(params, toy_env.s0, action, toy_env)
        assert lp == pytest.approx(float(dist.log_probs[i]), rel=1e-12)
    assert sum(np.exp(dist.log_probs)) == pytest.approx(1.0, abs=1e-9)


def test_log_prob_invalid_action(toy_env):
    params = init_params("linear", toy_env.feature_dim)
    with pytest.raises(InvalidActionError):
        step_logprob_and_grad(params, toy_env.s0, "not-an-action", toy_env)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_normalization_property(seed):
    env = make_env(two_terminal_instance())
    params = random_params("mlp", env, hidden=4, seed=seed)
    dist = action_logits(params, env.s0, env)
    assert np.exp(dist.log_probs).sum() == pytest.approx(1.0, abs=1e-9)


def test_sampling_deterministic_under_fixed_seed(toy_env):
    params = random_params("linear", toy_env, seed=8)
    dist = action_logits(params, toy_env.s0, toy_env)
    picks = {dist.action_ids[sample_action(dist, 1.0, substream(4, "s"))] for _ in range(5)}
    # rebuilding the same substream must reproduce the same first draw
    again = {dist.action_ids[sample_action(dist, 1.0, substream(4, "s"))] for _ in range(5)}
    first = sample_action(dist, 1.0, substream(4, "s"))
    assert first == sample_action(dist, 1.0, substream(4, "s"))
    assert picks == again


def test_beta_zero_limit_is_argmax(toy_env):
    params = random_params("linear", toy_env, seed=9)
    dist = action_logits(params, toy_env.s0, toy_env)
    best = dist.action_ids[int(np.argmax(dist.logits))]
    for k in range(10):
        assert dist.action_ids[sample_action(dist, 1e-9, substream(k, "b"))] == best


def test_beta_nonpositive_rejected(toy_env):
    params = init_params("linear", toy_env.feature_dim)
    dist = action_logits(params, toy_env.s0, toy_env)
    with pytest.raises(ValueError):
        sample_action(dist, 0.0, substream(0))
    with pytest.raises(ValueError):
        sample_action(dist, -1.0, substream(0))


def reference_choice_index(logits, beta, rng):
    probs = np.exp(_log_softmax(logits / beta))
    probs /= probs.sum()
    return int(rng.choice(len(probs), p=probs))


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, math.inf])
def test_sample_action_draws_as_generator_choice(beta):
    gen = substream(0, "logits", beta)
    for k in range(300):
        n = 2 + k % 9
        logits = gen.normal(0.0, 3.0, n)
        if k % 3:  # near one-hot: the other probabilities are tiny or underflow to 0
            logits[int(gen.integers(n))] += (40.0, 800.0)[k % 3 - 1]
        dist = ActionDistribution([str(a) for a in range(n)], logits, _log_softmax(logits))
        rng, ref = substream(k, "draw"), substream(k, "draw")
        # the second draw reads the cdf the first kept on `dist`
        for _ in range(2):
            assert sample_action(dist, beta, rng) == reference_choice_index(logits, beta, ref)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert list(dist.cdfs) == [beta]


def test_sample_action_nan_logit_is_value_error():
    logits = np.array([0.3, np.nan, -1.0])
    dist = ActionDistribution(["a", "b", "c"], logits, _log_softmax(logits))
    rng, ref = substream(0, "nan"), substream(0, "nan")
    # no cdf is kept, so a repeated draw raises again
    for beta in (1.0, 0.5, 1.0):
        with pytest.raises(ValueError):
            reference_choice_index(logits, beta, ref)
        with pytest.raises(ValueError):
            sample_action(dist, beta, rng)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert not dist.cdfs


def test_uniform_sampling_frequency_chi_square(toy_env):
    from scipy import stats

    params = init_params("linear", toy_env.feature_dim)
    dist = action_logits(params, toy_env.s0, toy_env)
    rng = substream(1234, "chi")
    counts = {a: 0 for a in dist.action_ids}
    n = 10_000
    for _ in range(n):
        counts[dist.action_ids[sample_action(dist, 1.0, rng)]] += 1
    observed = [counts[a] for a in dist.action_ids]
    _, p_value = stats.chisquare(observed)
    assert p_value > 0.01


def test_scoring_is_temperature_independent(toy_env):
    # tempered behavior sampling never changes the beta=1 scores
    params = random_params("linear", toy_env, seed=3)

    def log_prob(action):
        dist = action_logits(params, toy_env.s0, toy_env)
        return float(dist.log_probs[dist.action_ids.index(action)])

    lp_before = log_prob("left")
    from flowseek.exploration import sample_trajectory_mixed

    for beta in (0.5, 1.0, 3.0):
        traj = sample_trajectory_mixed(params, toy_env, 0.0, beta, substream(7, "t", beta))
        idx = ["left", "right"].index(traj.actions[0])
        expected = log_prob(traj.actions[0])
        terms, _ = trajectory_logpf_and_grad(params, traj, toy_env)
        assert terms[0] == pytest.approx(expected, rel=1e-12)
    assert log_prob("left") == lp_before


def test_featurizer_determinism(toy_env):
    a = toy_env.featurize(toy_env.s0, "left")
    b = toy_env.featurize(toy_env.s0, "left")
    np.testing.assert_array_equal(a, b)


def test_apply_update_sgd():
    params = init_params("linear", 4)
    grad = np.array([1.0, -2.0, 0.5, 0.0])
    opt = OptimizerState(kind="sgd", learning_rate=0.1)
    updated = apply_update(params, grad, opt)
    np.testing.assert_allclose(updated.vector, -0.1 * grad)
    unchanged = apply_update(updated, np.zeros(4), opt)
    np.testing.assert_array_equal(unchanged.vector, updated.vector)


def test_apply_update_rejects_nonfinite():
    params = init_params("linear", 3)
    opt = OptimizerState(kind="sgd")
    with pytest.raises(ValueError, match="non-finite"):
        apply_update(params, np.array([1.0, np.nan, 0.0]), opt)


def test_adam_moves_against_gradient():
    params = init_params("linear", 3)
    opt = OptimizerState(kind="adaptive", learning_rate=1e-2)
    grad = np.array([1.0, -1.0, 0.0])
    updated = apply_update(params, grad, opt)
    assert updated.vector[0] < 0 and updated.vector[1] > 0 and updated.vector[2] == 0


def test_param_count():
    assert param_count("linear", 7, 64) == 7
    assert param_count("mlp", 7, 5) == 5 * 7 + 5 + 5


def test_checkpoint_roundtrip_bit_exact(tmp_path, toy_env):
    params = random_params("mlp", toy_env, hidden=4, seed=21)
    opt = OptimizerState(kind="adaptive", learning_rate=3e-4)
    opt.m = substream(1, "m").normal(size=params.vector.shape)
    opt.v = np.abs(substream(1, "v").normal(size=params.vector.shape))
    opt.step = 17
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, params, opt, {"env_id": "toydag"})
    loaded, lopt, extra = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.vector, params.vector)
    assert (loaded.variant, loaded.feature_dim, loaded.hidden_dim) == (
        params.variant,
        params.feature_dim,
        params.hidden_dim,
    )
    np.testing.assert_array_equal(lopt.m, opt.m)
    np.testing.assert_array_equal(lopt.v, opt.v)
    assert lopt.step == opt.step
    assert extra == {"env_id": "toydag"}
    # and re-saving produces identical bytes
    path2 = tmp_path / "ckpt2.json"
    save_checkpoint(path2, loaded, lopt, extra)
    assert path.read_bytes() == path2.read_bytes()


def test_tabular_linear_policy_represents_arbitrary_conditionals(toy_instance, toy_env):
    """Placing log-target values at one-hot indices realizes any target dist."""
    from flowseek.oracle import policy_terminal_dist, tv_distance

    table = TabularIndex.build([toy_env])
    env = TabularEnv(toy_env, table)
    rng = substream(99, "target")
    # random target conditional at s0; mid states are single-action
    p_left = float(rng.uniform(0.05, 0.95))
    vec = np.zeros(table.dim)
    vec[table.index[(env.goal, "s0", "left")]] = math.log(p_left)
    vec[table.index[(env.goal, "s0", "right")]] = math.log(1 - p_left)
    params = PolicyParams("linear", table.dim, 64, vec)
    dist = policy_terminal_dist(params, toy_instance, env)
    target = {"t_low": p_left, "t_high": 1 - p_left}
    assert tv_distance(dist, target) < 0.01


def test_mlp_gradient_matches_manual_chain(toy_env):
    # one-step chain-rule recomputation for a tiny mlp
    params = random_params("mlp", toy_env, hidden=3, seed=2)
    state = toy_env.s0
    lp, grad = step_logprob_and_grad(params, state, "left", toy_env)
    left = action_logits(params, state, toy_env).action_ids.index("left")
    h = 1e-6
    fd = np.zeros_like(params.vector)
    for j in range(len(params.vector)):
        vp = params.vector.copy()
        vp[j] += h
        vm = params.vector.copy()
        vm[j] -= h
        pp = PolicyParams("mlp", params.feature_dim, 3, vp)
        pm = PolicyParams("mlp", params.feature_dim, 3, vm)
        fd[j] = (
            action_logits(pp, state, toy_env).log_probs[left]
            - action_logits(pm, state, toy_env).log_probs[left]
        ) / (2 * h)
    np.testing.assert_allclose(grad, fd, atol=1e-6)
