import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowseek.environments import make_env
from flowseek.errors import BatchTooSmallError, InvalidRewardError
from flowseek.flow_core import (
    Trajectory,
    log_pb_uniform,
    loss_logvar,
    loss_tb_logz,
    phi,
)
from flowseek.policy import trajectory_logpf_and_grad

from conftest import random_params, rollout


def make_traj(states, actions, logpf, reward, instance_id="t"):
    """A complete trajectory and the sum of the log P_F terms `logpf`."""
    return Trajectory(instance_id, states, actions, reward=reward, is_complete=True), sum(logpf)


class FakeTreeEnv:
    parent_mode = "tree"


class FakeExactEnv:
    """Fixed parent counts per state, for pinning Eq-level examples."""

    parent_mode = "exact"

    def __init__(self, counts):
        self.counts = counts

    def parent_count(self, state):
        return self.counts[state]

    cached_parent_count = parent_count


def test_log_pb_tree_mode_is_zero():
    traj, _ = make_traj(["a", "b", "c"], ["x", "y"], [-0.1, -0.2], 1.0)
    assert log_pb_uniform(traj, FakeTreeEnv()) == 0.0


def test_log_pb_two_steps_nine_parents():
    # pinned against the cube inverse-move enumeration in test_environments_cube
    traj, _ = make_traj(["a", "b", "c"], ["x", "y"], [-0.1, -0.2], 1.0)
    env = FakeExactEnv({"b": 9, "c": 9})
    assert log_pb_uniform(traj, env) == pytest.approx(2 * math.log(1 / 9))


def test_log_pb_single_step_three_parents():
    traj, _ = make_traj(["a", "b"], ["x"], [-0.1], 1.0)
    env = FakeExactEnv({"b": 3})
    assert log_pb_uniform(traj, env) == pytest.approx(math.log(1 / 3))


def test_phi_tree_one_step():
    traj, lp = make_traj(["a", "b"], ["x"], [math.log(0.5)], 100.0)
    assert phi(traj, FakeTreeEnv(), lp) == pytest.approx(math.log(100) - math.log(0.5))
    assert phi(traj, FakeTreeEnv(), lp) == pytest.approx(5.2983, abs=1e-4)


def test_phi_identity_case():
    traj, lp = make_traj(["a", "b"], ["x"], [0.0], 1.0)
    assert phi(traj, FakeTreeEnv(), lp) == 0.0


def test_phi_rejects_nonpositive_reward():
    traj, lp = make_traj(["a", "b"], ["x"], [0.0], 0.0)
    with pytest.raises(InvalidRewardError):
        phi(traj, FakeTreeEnv(), lp)


def test_phi_matches_independent_resummation(toy_env):
    # hand re-summation oracle over the logged terms of a sampled trajectory
    params = random_params("linear", toy_env, seed=3)
    traj = rollout(toy_env, seed=5, eps=0.0)
    terms, _ = trajectory_logpf_and_grad(params, traj, toy_env)
    expected = math.log(traj.reward)
    for t in terms:
        expected -= t
    assert phi(traj, toy_env, sum(terms)) == pytest.approx(expected, rel=1e-12)


def phis_of(scored, env):
    return [phi(t, env, lp) for t, lp in scored]


def test_loss_logvar_zero_variance():
    t1 = make_traj(["a", "b"], ["x"], [math.log(0.5)], 2.0)
    t2 = make_traj(["a", "b"], ["x"], [math.log(0.5)], 2.0)
    loss, _ = loss_logvar(phis_of([t1, t2], FakeTreeEnv()))
    assert loss == pytest.approx(0.0, abs=1e-15)


def test_loss_logvar_two_point():
    t1 = make_traj(["a", "b"], ["x"], [0.0], 1.0)  # phi = 0
    t2 = make_traj(["a", "b"], ["x"], [0.0], math.e)  # phi = 1
    phis = phis_of([t1, t2], FakeTreeEnv())
    loss, _ = loss_logvar(phis)
    assert loss == pytest.approx(0.25)  # ((a-b)/2)^2 with a-b = 1
    assert phis == pytest.approx([0.0, 1.0])


def test_loss_logvar_batch_too_small():
    t1 = make_traj(["a", "b"], ["x"], [0.0], 1.0)
    with pytest.raises(BatchTooSmallError):
        loss_logvar(phis_of([t1], FakeTreeEnv()))


def test_loss_logvar_zero_iff_equal_phis():
    t1 = make_traj(["a", "b"], ["x"], [math.log(0.25)], 1.0)
    t2 = make_traj(["a", "b"], ["x"], [math.log(0.75)], 3.0)
    loss, _ = loss_logvar(phis_of([t1, t2], FakeTreeEnv()))
    assert loss == pytest.approx(0.0, abs=1e-24)  # phi equal: log(1/.25)=log(3/.75)
    t3 = make_traj(["a", "b"], ["x"], [math.log(0.5)], 3.0)
    loss2, _ = loss_logvar(phis_of([t1, t3], FakeTreeEnv()))
    assert loss2 > 1e-3


def test_loss_tb_singleton_zero_iff_z_matches():
    traj = make_traj(["a", "b"], ["x"], [math.log(0.5)], 100.0)
    z_val = phi(traj[0], FakeTreeEnv(), traj[1])
    loss, _, grad_z = loss_tb_logz(phis_of([traj], FakeTreeEnv()), z_val)
    assert loss == pytest.approx(0.0, abs=1e-20)
    assert grad_z == pytest.approx(0.0, abs=1e-9)
    loss2, _, _ = loss_tb_logz(phis_of([traj], FakeTreeEnv()), z_val + 1.0)
    assert loss2 == pytest.approx(1.0)


def test_loss_tb_identity_case():
    traj = make_traj(["a", "b"], ["x"], [0.0], 1.0)
    loss, _, _ = loss_tb_logz(phis_of([traj], FakeTreeEnv()), 0.0)
    assert loss == pytest.approx(0.0, abs=1e-20)


@settings(max_examples=30, deadline=None)
@given(k=st.floats(min_value=1e-3, max_value=1e3))
def test_logvar_shift_invariance_under_reward_scaling(k):
    trajs = [
        make_traj(["a", "b"], ["x"], [math.log(0.3)], 1.0),
        make_traj(["a", "b"], ["x"], [math.log(0.5)], 4.0),
        make_traj(["a", "b"], ["x"], [math.log(0.2)], 2.5),
    ]
    env = FakeTreeEnv()
    base_phis = phis_of(trajs, env)
    base_loss, _ = loss_logvar(base_phis)
    scaled = [(dataclasses.replace(t, reward=t.reward * k), lp) for t, lp in trajs]
    scaled_phis = phis_of(scaled, env)
    scaled_loss, _ = loss_logvar(scaled_phis)
    for p0, p1 in zip(base_phis, scaled_phis):
        assert p1 - p0 == pytest.approx(math.log(k), abs=1e-9)
    assert scaled_loss == pytest.approx(base_loss, abs=1e-9)


def test_a_gradient_the_whole_batch_shares_cancels_under_logvar_only():
    # the logvar weights (phi_j - mean phi) sum to zero, so a direction every
    # trajectory's grad holds moves nothing; TB's weights are the residuals
    rng = np.random.default_rng(5)
    m, p = 6, 9
    phis = rng.normal(0.0, 2.0, m)
    grads = rng.normal(0.0, 1.0, (m, p))
    shared = rng.normal(0.0, 3.0, p)
    shifted = [g + shared for g in grads]

    _, base = loss_logvar(phis, list(grads))
    _, moved = loss_logvar(phis, shifted)
    np.testing.assert_allclose(moved, base, rtol=0.0, atol=1e-12)

    z = 0.7
    _, base, _ = loss_tb_logz(phis, z, list(grads))
    _, moved, _ = loss_tb_logz(phis, z, shifted)
    residuals = z - phis
    np.testing.assert_allclose(moved - base, (2.0 / m) * residuals.sum() * shared,
                               rtol=0.0, atol=1e-12)


def test_complete_trajectory_stepwise_probability_bounds(toy_env):
    params = random_params("linear", toy_env, seed=2)
    traj = rollout(toy_env, seed=9, eps=0.0)
    terms, _ = trajectory_logpf_and_grad(params, traj, toy_env)
    total = math.exp(sum(terms))
    assert 0.0 < total <= 1.0
    assert all(t <= 0.0 for t in terms)


def fd_gradient(loss_fn, vec, h=1e-5):
    grad = np.zeros_like(vec)
    for j in range(len(vec)):
        vp, vm = vec.copy(), vec.copy()
        vp[j] += h
        vm[j] -= h
        grad[j] = (loss_fn(vp) - loss_fn(vm)) / (2 * h)
    return grad


def relative_error(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


@pytest.mark.parametrize("variant", ["linear", "mlp"])
@pytest.mark.parametrize("loss_kind", ["logvar", "tb_logz"])
def test_gradients_match_finite_differences(variant, loss_kind):
    from flowseek.environments.toydag import generate_instances

    inst = generate_instances(1, seed=77)[0]
    env = make_env(inst)
    params = random_params(variant, env, hidden=4, seed=13)
    trajs = [rollout(env, seed=k, eps=1.0, tag=f"fd{k}") for k in range(4)]

    def loss_value(vec):
        from flowseek.policy import PolicyParams

        p = PolicyParams(variant, env.feature_dim, 4, vec)
        scored, gs = [], []
        for t in trajs:
            terms, g = trajectory_logpf_and_grad(p, t, env)
            scored.append((t, sum(terms)))
            gs.append(g)
        phis = phis_of(scored, env)
        if loss_kind == "logvar":
            return loss_logvar(phis, gs)
        return loss_tb_logz(phis, 0.4, gs)[:2]

    loss, grad = loss_value(params.vector)
    fd = fd_gradient(lambda v: loss_value(v)[0], params.vector.copy())
    assert relative_error(grad, fd) < 1e-4


def test_trajectory_shape_invariant():
    from flowseek.errors import StructuralError

    with pytest.raises(StructuralError):
        Trajectory("x", ["a", "b"], ["u", "v"])
