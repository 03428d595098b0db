"""Flow-theoretic quantities over complete trajectories.

A complete trajectory is a path and its terminal reward. The per-trajectory
residual

    phi = log R + sum(log P_B) - sum(log P_F)

equals the log partition value when the sampler is exactly reward
proportional, so training minimizes either the batch variance of phi or the
squared residual against a learned log-Z scalar. Backward probabilities are
uniform over parents; in tree mode every state has one parent and the P_B sum
vanishes.

sum(log P_F) depends on the parameters, so a trajectory stores none: callers
score it at the parameters they train (`policy.trajectory_logpf_and_grad`)
and pass the sum to `phi`. Gradients are analytic. The losses only depend on
parameters through the -sum(log P_F) term of each phi, so callers pass, per
trajectory, the gradient of sum(log P_F) with respect to the flat parameter
vector. Reward and P_B terms are constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BatchTooSmallError, InvalidRewardError, StructuralError


@dataclass
class Trajectory:
    """An ordered (state, action) path from s0 to a terminal state, and its reward.

    `states` has one more entry than `actions`.
    """

    instance_id: str
    states: list[str]
    actions: list[str]
    reward: float = 0.0
    is_complete: bool = False

    def __post_init__(self) -> None:
        if len(self.states) != len(self.actions) + 1:
            raise StructuralError(
                f"trajectory has {len(self.states)} states for {len(self.actions)} actions"
            )

    @property
    def n_steps(self) -> int:
        return len(self.actions)


def log_pb_uniform(traj: Trajectory, env) -> float:
    """Sum of log(1/|Pa(s_t)|) over the non-initial states of `traj`.

    In tree mode every state key embeds its full history, so each state has
    exactly one parent and the sum is 0.
    """
    if env.parent_mode == "tree":
        return 0.0
    total = 0.0
    for state in traj.states[1:]:
        n_parents = env.cached_parent_count(state)
        if n_parents <= 0:
            raise StructuralError(f"state {state!r} reports {n_parents} parents")
        total -= math.log(n_parents)
    return total


def phi(traj: Trajectory, env, sum_logpf: float) -> float:
    """log R + sum(log P_B) - sum_logpf for a complete trajectory, where
    `sum_logpf` is its sum(log P_F) at the current parameters."""
    if not traj.is_complete:
        raise InvalidRewardError("phi requires a complete trajectory")
    if traj.reward <= 0.0:
        raise InvalidRewardError(f"phi requires reward > 0, got {traj.reward}")
    return math.log(traj.reward) + log_pb_uniform(traj, env) - sum_logpf


def loss_logvar(
    phis: Sequence[float],
    sum_logpf_grads: Sequence[np.ndarray] | None = None,
) -> tuple[float, np.ndarray | None]:
    """Batch variance of phi and its gradient w.r.t. the policy parameters.

    Returns (loss, grad). `sum_logpf_grads[i]` must be the gradient of
    sum(log P_F) for trajectory i; pass None to skip gradient computation.

    The expectation in the variance is the arithmetic mean of the current
    batch. Differentiating through that mean or treating it as a constant
    yields the same gradient, because the deviations (phi_i - mean) sum to
    zero.
    """
    phis = np.asarray(phis, dtype=np.float64)
    m = len(phis)
    if m < 2:
        raise BatchTooSmallError(f"variance loss needs M >= 2 trajectories, got {m}")
    centered = phis - phis.mean()
    loss = float(np.mean(centered**2))

    if sum_logpf_grads is None:
        return loss, None
    grads = np.asarray(sum_logpf_grads, dtype=np.float64)  # (M, P)
    # d phi_i / d theta = -grad_i
    dphi = -grads
    dmean = dphi.mean(axis=0)
    grad = (2.0 / m) * centered @ (dphi - dmean)
    return loss, grad


def loss_tb_logz(
    phis: Sequence[float],
    z: float,
    sum_logpf_grads: Sequence[np.ndarray] | None = None,
) -> tuple[float, np.ndarray | None, float]:
    """Classic trajectory-balance loss with a learned log-Z scalar.

    Returns (loss, grad_params, grad_z) where the loss is the batch mean of
    (z + sum(log P_F) - log R - sum(log P_B))^2 = (z - phi)^2.
    """
    phis = np.asarray(phis, dtype=np.float64)
    m = len(phis)
    if m < 1:
        raise BatchTooSmallError("TB loss needs at least one trajectory")
    residuals = z - phis
    loss = float(np.mean(residuals**2))

    grad_z = float(2.0 * residuals.mean())
    if sum_logpf_grads is None:
        return loss, None, grad_z
    grads = np.asarray(sum_logpf_grads, dtype=np.float64)
    # d residual_i / d theta = +grad_i (through the sum(log P_F) term)
    grad = (2.0 / m) * residuals @ grads
    return loss, grad, grad_z
