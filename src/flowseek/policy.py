"""Parameterized forward policy over valid actions.

The policy scores each (state, action) pair of an instance's environment with
a scalar logit computed from the environment's feature vector, either through
a linear head or a one-hidden-layer tanh head, and normalizes with a softmax
over the valid-action set. Sampling may temper the logits; scoring for
training always happens at temperature 1.

Parameters live in a single flat float64 vector so optimizers and
finite-difference checks stay trivial.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, DeadEndError, InvalidActionError
from .rngutil import substream

DEFAULT_HIDDEN_DIM = 64


@dataclass
class PolicyParams:
    """Flat parameter vector plus the shape metadata to interpret it."""

    variant: str  # "linear" or "mlp"
    feature_dim: int
    hidden_dim: int
    vector: np.ndarray

    def __post_init__(self) -> None:
        if self.variant not in ("linear", "mlp"):
            raise ValueError(f"unknown policy variant {self.variant!r}")
        self.vector = np.asarray(self.vector, dtype=np.float64)
        if self.vector.shape != (param_count(self.variant, self.feature_dim, self.hidden_dim),):
            raise ValueError("parameter vector length does not match variant/shape")
        if not np.all(np.isfinite(self.vector)):
            raise ValueError("parameter vector contains non-finite entries")

    def _views(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(W1[h,d], b1[h], w2[h]) views for the mlp variant."""
        d, h = self.feature_dim, self.hidden_dim
        w1 = self.vector[: h * d].reshape(h, d)
        b1 = self.vector[h * d : h * d + h]
        w2 = self.vector[h * d + h :]
        return w1, b1, w2


@dataclass
class ActionDistribution:
    """Softmax distribution over the valid actions at one state (temperature 1),
    with the feature rows and the mlp hidden layer (None for linear) behind it,
    and the normalized cdf of each temperature `sample_action` has drawn at."""

    action_ids: list[str]
    logits: np.ndarray
    log_probs: np.ndarray
    feats: np.ndarray | None = None
    hidden: np.ndarray | None = None
    cdfs: dict[float, np.ndarray] = field(default_factory=dict)


def param_count(variant: str, feature_dim: int, hidden_dim: int) -> int:
    if variant == "linear":
        return feature_dim
    return hidden_dim * feature_dim + hidden_dim + hidden_dim


def init_params(
    variant: str,
    feature_dim: int,
    hidden_dim: int = DEFAULT_HIDDEN_DIM,
    seed: int = 0,
) -> PolicyParams:
    """Fresh parameters: zeros for linear (uniform policy), small random for mlp.

    A zero-initialized tanh head has identically zero gradients, so the mlp
    variant draws small uniform weights from a seeded substream.
    """
    n = param_count(variant, feature_dim, hidden_dim)
    if variant == "linear":
        vec = np.zeros(n)
    else:
        rng = substream(seed, "policy-init", variant, feature_dim, hidden_dim)
        vec = rng.uniform(-0.1, 0.1, size=n)
    return PolicyParams(variant, feature_dim, hidden_dim, vec)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    return shifted - math.log(np.exp(shifted).sum())


def action_logits(params: PolicyParams, state: str, env) -> ActionDistribution:
    """Distribution over the environment's valid actions at `state`: the one forward pass."""
    actions = env.cached_valid_actions(state)
    if not actions:
        raise DeadEndError(f"no valid actions at non-terminal state {state!r}")
    feats = env.feature_matrix(state)  # (A, d)
    hidden = None
    if params.variant == "linear":
        logits = feats @ params.vector
    else:
        w1, b1, w2 = params._views()
        hidden = np.tanh(feats @ w1.T + b1)  # (A, h)
        logits = hidden @ w2
    return ActionDistribution(actions, logits, _log_softmax(logits), feats, hidden)


def memo_logits(params: PolicyParams, state: str, env, memo: dict) -> ActionDistribution:
    """`action_logits(params, state, env)`, run once per `env.decision_key(state)` in `memo`.

    `memo` holds one env's distributions at `params`: a caller starts a new one
    when either changes. Callers only read a distribution or add the tempered
    cdfs that depend on it alone, so sharing it is safe."""
    key = env.decision_key(state)
    dist = memo.get(key)
    if dist is None:
        dist = memo[key] = action_logits(params, state, env)
    return dist


def tempered_cdf(dist: ActionDistribution, beta: float) -> np.ndarray:
    """Normalized cdf of softmax(dist.logits / beta); raises on NaN probabilities."""
    log_probs = dist.log_probs if beta == 1.0 else _log_softmax(dist.logits / beta)
    probs = np.exp(log_probs)
    cdf = np.cumsum(probs / probs.sum())
    if math.isnan(cdf[-1]):
        raise ValueError("probabilities contain NaN")
    cdf /= cdf[-1]
    return cdf


def sample_action(dist: ActionDistribution, beta: float, rng: np.random.Generator) -> int:
    """Index into `dist.action_ids` drawn from softmax(logits / beta).

    beta > 1 flattens the distribution. The draw is `Generator.choice`'s: one
    `random()` searched in the normalized cdf, so it takes the same numbers.
    The cdf is kept on `dist` per beta, so rollouts sharing a memo (see
    `memo_logits`) temper each decision point once."""
    if beta <= 0:
        raise ValueError(f"temperature must be positive, got {beta}")
    cdf = dist.cdfs.get(beta)
    if cdf is None:
        cdf = dist.cdfs[beta] = tempered_cdf(dist, beta)
    return int(cdf.searchsorted(rng.random(), side="right"))


def step_grad(params: PolicyParams, dist: ActionDistribution, idx: int) -> np.ndarray:
    """Gradient of log P_F(dist.action_ids[idx]) w.r.t. the flat parameter vector."""
    probs = np.exp(dist.log_probs)
    feats, hidden = dist.feats, dist.hidden
    if params.variant == "linear":
        # grad log p(a) = phi_a - E_p[phi]
        return feats[idx] - probs @ feats
    w2 = params._views()[2]
    dtanh = 1.0 - hidden**2
    # per-action logit gradients, combined as g_a - E_p[g]
    coeff = -probs
    coeff[idx] += 1.0  # (A,)
    grad_w2 = coeff @ hidden  # (h,)
    back = (coeff[:, None] * dtanh) * w2  # (A, h)
    grad_b1 = back.sum(axis=0)
    grad_w1 = back.T @ feats  # (h, d)
    return np.concatenate([grad_w1.ravel(), grad_b1, grad_w2])


def step_logprob_and_grad(
    params: PolicyParams, state: str, action: str, env, memo: dict | None = None
) -> tuple[float, np.ndarray]:
    """log P_F(action | state) and its gradient w.r.t. the flat parameter vector,
    with the distribution at `state` read through `memo` (see `memo_logits`)."""
    dist = memo_logits(params, state, env, {} if memo is None else memo)
    try:
        idx = dist.action_ids.index(action)
    except ValueError:
        raise InvalidActionError(f"action {action!r} not valid at state {state!r}") from None
    return float(dist.log_probs[idx]), step_grad(params, dist, idx)


def trajectory_logpf_and_grad(
    params: PolicyParams, traj, env, memo: dict | None = None
) -> tuple[list[float], np.ndarray]:
    """Per-step log P_F terms and the gradient of their sum under `params`.

    A caller scoring several trajectories at one `params` passes one `memo`
    (see `memo_logits`), so each decision point's forward pass runs once."""
    memo = {} if memo is None else memo
    terms: list[float] = []
    total_grad = np.zeros_like(params.vector)
    for state, action in zip(traj.states[:-1], traj.actions):
        lp, g = step_logprob_and_grad(params, state, action, env, memo)
        terms.append(lp)
        total_grad += g
    return terms, total_grad


@dataclass
class OptimizerState:
    """First-order optimizer state; `adaptive` is Adam with standard defaults."""

    kind: str = "adaptive"  # "adaptive" or "sgd"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    def state_dict(self) -> dict:
        return {
            "kind": self.kind,
            "learning_rate": self.learning_rate,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "epsilon": self.epsilon,
            "step": self.step,
            "m": None if self.m is None else self.m.tolist(),
            "v": None if self.v is None else self.v.tolist(),
        }

    @classmethod
    def from_state_dict(cls, d: dict) -> "OptimizerState":
        st = cls(
            kind=d["kind"],
            learning_rate=d["learning_rate"],
            beta1=d["beta1"],
            beta2=d["beta2"],
            epsilon=d["epsilon"],
            step=d["step"],
        )
        st.m = None if d["m"] is None else np.asarray(d["m"], dtype=np.float64)
        st.v = None if d["v"] is None else np.asarray(d["v"], dtype=np.float64)
        return st


CHECKPOINT_FORMAT = "flowseek-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, params: PolicyParams, opt: OptimizerState, extra: dict | None = None) -> None:
    """Write a versioned JSON checkpoint; floats round-trip bit-exactly via repr."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "variant": params.variant,
        "feature_dim": params.feature_dim,
        "hidden_dim": params.hidden_dim,
        "params": params.vector.tolist(),
        "optimizer": opt.state_dict(),
        "extra": extra or {},
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True)
        f.write("\n")


def load_checkpoint(path) -> tuple[PolicyParams, OptimizerState, dict]:
    """Read a checkpoint written by `save_checkpoint`; a file that is none
    raises CheckpointError naming it."""
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
            if doc.get("format") != CHECKPOINT_FORMAT:
                raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} file")
            version = doc.get("version")
            if version != CHECKPOINT_VERSION:
                raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
            params = PolicyParams(doc["variant"], doc["feature_dim"], doc["hidden_dim"],
                                  np.asarray(doc["params"], dtype=np.float64))
            opt = OptimizerState.from_state_dict(doc["optimizer"])
            return params, opt, dict(doc.get("extra", {}))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: malformed checkpoint ({exc!r})") from None


def apply_update(
    params: PolicyParams,
    gradient: np.ndarray,
    opt: OptimizerState,
    lr_override: float | None = None,
) -> PolicyParams:
    """One optimizer step along -gradient; returns a new parameter snapshot."""
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.shape != params.vector.shape:
        raise ValueError("gradient shape does not match parameters")
    if not np.all(np.isfinite(gradient)):
        bad = int(np.count_nonzero(~np.isfinite(gradient)))
        raise ValueError(f"gradient has {bad} non-finite entries; update rejected")
    lr = opt.learning_rate if lr_override is None else lr_override

    if opt.kind == "sgd":
        new_vec = params.vector - lr * gradient
    elif opt.kind == "adaptive":
        if opt.m is None:
            opt.m = np.zeros_like(params.vector)
            opt.v = np.zeros_like(params.vector)
        opt.step += 1
        opt.m = opt.beta1 * opt.m + (1 - opt.beta1) * gradient
        opt.v = opt.beta2 * opt.v + (1 - opt.beta2) * gradient**2
        m_hat = opt.m / (1 - opt.beta1**opt.step)
        v_hat = opt.v / (1 - opt.beta2**opt.step)
        new_vec = params.vector - lr * m_hat / (np.sqrt(v_hat) + opt.epsilon)
    else:
        raise ValueError(f"unknown optimizer kind {opt.kind!r}")
    return PolicyParams(params.variant, params.feature_dim, params.hidden_dim, new_vec)
