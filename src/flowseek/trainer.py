"""Training loop: mixed exploration, replay/offline exploitation, local search.

Each iteration visits one training instance (round-robin); a seeded draw then
chooses between exploring (sample a batch of mixed rollouts, run local search
on the batch's best trajectory, push everything into the replay buffer) and
exploiting (redraw a batch from the buffer, or from the offline pool when the
instance has offline data), then applies one optimizer step. Trajectories
carry no log-probabilities, so one loop scores every trajectory entering a
loss at the current parameters, whether it is a rollout, a replayed or
offline draw or a local-search find, and each distinct action sequence once.
A batch's trajectories share decision points, and each iteration's params
snapshot keeps the memo from the env's `decision_key` to its distribution
(`policy.memo_logits`), so the rollouts and the scoring run each decision
point's forward pass once; the optimizer step's new snapshot starts empty.
The memo reuses values a fresh pass would compute bit for bit.

Exploitation draws are restricted to the current instance's entries (the
replay buffer keeps one pool per instance): phi targets the per-instance log
partition value, so mixing instances inside one variance batch would conflate
their partition values.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .environments import ENV_CLASSES, EnvInstance, TabularEnv, TabularIndex, make_envs
from .environments import replay_trajectory
from .environments.base import DEFAULT_INTERMEDIATE_WEIGHT, DEFAULT_SUCCESS_WEIGHT, REWARD_FLOOR
from .errors import (
    EmptyBufferError,
    FlowseekError,
    NumericError,
    StructuralError,
)
from .exploration import (
    ExplorationSchedule,
    ReplayBuffer,
    buffer_insert,
    buffer_sample,
    check_finite_floats,
    local_search,
    sample_trajectory_mixed,
)
from .flow_core import Trajectory, loss_logvar, loss_tb_logz, phi
from .policy import (
    DEFAULT_HIDDEN_DIM,
    OptimizerState,
    PolicyParams,
    apply_update,
    init_params,
    trajectory_logpf_and_grad,
)
from .rngutil import substream


@dataclass
class LocalSearchConfig:
    enabled: bool = True
    num_recon: int = 4
    k_mode: str | int = "uniform"
    to_training: bool = False  # default routes accepted candidates to the buffer only


@dataclass
class TrainConfig:
    env_id: str
    iterations: int = 100
    batch_size: int = 4
    learning_rate: float = 1e-3
    optimizer: str = "adaptive"  # or "sgd"
    loss: str = "logvar"  # or "tb_logz"
    success_weight: float = DEFAULT_SUCCESS_WEIGHT
    intermediate_weight: float = DEFAULT_INTERMEDIATE_WEIGHT
    reward_floor: float = REWARD_FLOOR
    seed: int = 0
    schedules: ExplorationSchedule | None = None
    offline_data_path: str | None = None
    local_search: LocalSearchConfig = field(default_factory=LocalSearchConfig)
    policy_variant: str = "linear"
    hidden_dim: int = DEFAULT_HIDDEN_DIM
    featurizer: str = "default"  # or "tabular"
    scorer: str = "uniform"
    buffer_capacity: int = 1000
    priority_mode: str = "reward"
    logz_shared: bool = True
    logz_init: float = 0.0
    logz_learning_rate: float | None = None
    lr_schedule: str = "none"  # or "cosine"
    max_grad_norm: float | None = None
    checkpoint_interval: int | None = None

    def __post_init__(self) -> None:
        for name in ("iterations", "batch_size", "checkpoint_interval"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.loss == "logvar" and self.batch_size < 2:
            raise ValueError("the variance loss needs batch_size >= 2")
        if self.loss not in ("logvar", "tb_logz"):
            raise ValueError(f"unknown loss {self.loss!r}")
        check_finite_floats(self)
        # a step at or below 0 climbs the loss or stands still, and a clip at
        # or below 0 flips or zeroes every gradient
        for name in ("learning_rate", "logz_learning_rate", "max_grad_norm", "reward_floor"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.lr_schedule not in ("none", "cosine"):
            raise ValueError(f"unknown lr_schedule {self.lr_schedule!r}")
        if self.policy_variant == "mlp" and self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1 for the mlp policy, got {self.hidden_dim}")
        if self.local_search.num_recon < 1:
            raise ValueError(f"local_search.num_recon must be >= 1, got {self.local_search.num_recon}")
        # a k below 1 backs up no step, so every candidate is the trajectory itself
        k_mode = self.local_search.k_mode
        if k_mode != "uniform" and not (type(k_mode) is int and k_mode >= 1):
            raise ValueError(f"local_search.k_mode must be 'uniform' or an int >= 1, got {k_mode!r}")
        env_class = ENV_CLASSES.get(self.env_id)
        if self.scorer != "uniform" and env_class and not env_class.reads_scorer:
            raise ValueError(f"scorer {self.scorer!r}: the {self.env_id} reward reads no scorer")
        lam = self.intermediate_weight
        if lam != DEFAULT_INTERMEDIATE_WEIGHT and env_class and not env_class.reads_lambda:
            raise ValueError(f"lambda {lam!r}: the {self.env_id} reward reads no lambda")
        if self.schedules is None:
            self.schedules = ExplorationSchedule(total_iterations=self.iterations)


@dataclass
class TrainReport:
    """Per-iteration scalars, the trajectory log and the final optimizer state."""

    records: list[dict] = field(default_factory=list)
    trajectory_log: list[dict] = field(default_factory=list)
    optimizer_state: OptimizerState | None = None

    REPORT_FIELDS = (
        "iteration",
        "phase",
        "mean_loss",
        "mean_reward",
        "buffer_size",
        "eps",
        "beta",
        "replay_prob",
    )

    def write_csv(self, path) -> None:
        # wallclock stays out of the primary CSV so reruns are byte-identical
        with open(path, "w", encoding="utf-8") as f:
            f.write(",".join(self.REPORT_FIELDS) + "\n")
            for rec in self.records:
                f.write(",".join(_csv_cell(rec[k]) for k in self.REPORT_FIELDS) + "\n")

    def write_trajectory_log(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for rec in self.trajectory_log:
                f.write(json.dumps(rec, sort_keys=True))
                f.write("\n")


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


# the TrainConfig fields `build_envs` forwards to `make_envs`; a checkpoint stores
# them, with `env_id` and `featurizer`, so sampling rebuilds the envs it trained on
ENV_SETTINGS = ("scorer", "success_weight", "intermediate_weight", "reward_floor")


def build_envs(config: TrainConfig, instances: list[EnvInstance],
               table: TabularIndex | None = None) -> dict:
    """One environment per instance; the tabular featurizer is shared across all.

    `table` is the stored index of a trained tabular policy; without it the
    index is built over `instances`."""
    mismatched = [i.instance_id for i in instances if i.env_id != config.env_id]
    if mismatched:
        raise StructuralError(
            f"instances {mismatched[:3]} do not match env_id {config.env_id!r}"
        )
    settings = {name: getattr(config, name) for name in ENV_SETTINGS}
    envs = make_envs(instances, **settings)
    if config.featurizer == "tabular":
        if table is None:
            table = TabularIndex.build(list(envs.values()))
        envs = {k: TabularEnv(v, table) for k, v in envs.items()}
    elif config.featurizer != "default":
        raise ValueError(f"unknown featurizer {config.featurizer!r}")
    dims = {k: env.feature_dim for k, env in envs.items()}
    if len(set(dims.values())) > 1:
        # one parameter vector scores every instance, so the dims must agree
        raise StructuralError(
            f"instances have different feature dims {sorted(dims.items())[:5]}; "
            "use one instance or the tabular featurizer"
        )
    return envs


def _offline_record(line: str) -> tuple[str, list[str]] | None:
    """(instance_id, actions) of an offline record line; None if malformed or misshapen."""
    try:
        rec = json.loads(line)
    except ValueError:
        return None
    if not isinstance(rec, dict):
        return None
    instance_id, actions = rec.get("instance_id"), rec.get("actions")
    if isinstance(instance_id, str) and isinstance(actions, list) and all(
        isinstance(a, str) for a in actions
    ):
        return instance_id, actions
    return None


def ingest_offline(path, envs_by_instance: dict) -> tuple[list[Trajectory], int]:
    """Replay offline {instance_id, actions} records; returns (accepted, rejected)."""
    accepted: list[Trajectory] = []
    rejected = 0
    with open(path, encoding="utf-8") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines:
        raise FlowseekError(f"offline data file {path} is empty")
    for line in lines:
        rec = _offline_record(line)
        env = envs_by_instance.get(rec[0]) if rec else None
        if env is None:
            rejected += 1
            continue
        try:
            traj = replay_trajectory(env, rec[1])
        except (KeyError, ValueError, FlowseekError):
            rejected += 1
            continue
        if traj.is_complete:
            accepted.append(traj)
        else:  # the record stops short of a terminal state
            rejected += 1
    if not accepted:
        raise FlowseekError(f"no replayable records in {path} ({rejected} rejected)")
    return accepted, rejected


def train(config: TrainConfig, instances: list[EnvInstance],
          checkpoint_writer=None, envs: dict | None = None) -> tuple[PolicyParams, TrainReport]:
    """Train on `envs` (default `build_envs(config, instances)`); returns params and report."""
    if not instances:
        raise ValueError("training needs at least one instance")
    if envs is None:
        envs = build_envs(config, instances)
    any_env = envs[instances[0].instance_id]
    params = init_params(
        config.policy_variant, any_env.feature_dim, config.hidden_dim, seed=config.seed
    )
    opt = OptimizerState(kind=config.optimizer, learning_rate=config.learning_rate)

    logz: dict[str, float] = {}  # the tb_logz estimate, one shared or one per instance

    buffer = ReplayBuffer(capacity=config.buffer_capacity, priority_mode=config.priority_mode)
    offline_pool: dict[str, list[Trajectory]] = {}
    if config.offline_data_path:
        offline, _ = ingest_offline(config.offline_data_path, envs)
        for traj in offline:
            offline_pool.setdefault(traj.instance_id, []).append(traj)

    report = TrainReport(optimizer_state=opt)
    m = config.batch_size

    for i in range(config.iterations):
        t_start = time.perf_counter()
        inst = instances[i % len(instances)]
        env = envs[inst.instance_id]
        eps, beta, replay_prob = config.schedules.at(i)

        u = float(substream(config.seed, "train-branch", i).random())
        explore = u < (1.0 - replay_prob)
        phase = "explore" if explore else "exploit"
        batch_trajs: list[Trajectory] = []
        found: list[Trajectory] = []  # local-search finds, logged without a phi

        if not explore:
            pool = offline_pool.get(inst.instance_id)
            if pool:
                rng = substream(config.seed, "offline-draw", i)
                idx = rng.integers(0, len(pool), size=m)
                batch_trajs = [pool[int(j)] for j in idx]
            else:
                try:
                    rng = substream(config.seed, "buffer-draw", i)
                    batch_trajs = buffer_sample(buffer, m, rng, instance_id=inst.instance_id)
                except EmptyBufferError:
                    explore = True
                    phase = "explore_fallback"

        if explore:
            batch_trajs = [
                sample_trajectory_mixed(
                    params, env, eps, beta, substream(config.seed, "rollout", i, slot)
                )
                for slot in range(m)
            ]
            best = max(range(m), key=lambda j: batch_trajs[j].reward)
            for traj in batch_trajs:
                buffer_insert(buffer, traj)
            if config.local_search.enabled:
                found = local_search(
                    batch_trajs[best],
                    env,
                    num_recon=config.local_search.num_recon,
                    k_mode=config.local_search.k_mode,
                    rng=substream(config.seed, "localsearch", i),
                )
                for traj in found:
                    buffer_insert(buffer, traj)
                if config.local_search.to_training:
                    batch_trajs = batch_trajs + found

        # score every batch trajectory at the current parameters, each
        # distinct action sequence once
        scored: dict[tuple, tuple[float, np.ndarray]] = {}
        for traj in batch_trajs:
            key = tuple(traj.actions)
            if key not in scored:
                terms, grad = trajectory_logpf_and_grad(params, traj, env)
                scored[key] = phi(traj, env, sum(terms)), grad
        phis, grads = zip(*(scored[tuple(t.actions)] for t in batch_trajs))

        if config.loss == "logvar":
            loss, grad = loss_logvar(phis, grads)
        else:
            key = "__shared__" if config.logz_shared else inst.instance_id
            z = logz.setdefault(key, config.logz_init)
            loss, grad, grad_z = loss_tb_logz(phis, z, grads)
            z_lr = (
                config.logz_learning_rate
                if config.logz_learning_rate is not None
                else config.learning_rate
            )
            logz[key] = z - z_lr * grad_z

        if not math.isfinite(loss):
            raise NumericError(f"non-finite loss {loss} at iteration {i}")

        lr = config.learning_rate
        if config.lr_schedule == "cosine":
            lr = config.learning_rate * 0.5 * (1.0 + math.cos(math.pi * i / config.iterations))
        if config.max_grad_norm is not None:
            norm = float(np.linalg.norm(grad))
            if norm > config.max_grad_norm:
                grad = grad * (config.max_grad_norm / norm)
        params = apply_update(params, grad, opt, lr_override=lr)

        logged = [(phase, t, v) for t, v in zip(batch_trajs, phis)]
        logged += [("local_search", t, None) for t in found]
        for tag, traj, phi_val in logged:
            report.trajectory_log.append(
                {
                    "iteration": i,
                    "phase": tag,
                    "instance_id": traj.instance_id,
                    "actions": traj.actions,
                    "reward": traj.reward,
                    "phi": phi_val,
                }
            )
        report.records.append(
            {
                "iteration": i,
                "phase": phase,
                "mean_loss": loss,
                "mean_reward": float(np.mean([t.reward for t in batch_trajs])),
                "buffer_size": len(buffer),
                "eps": eps,
                "beta": beta,
                "replay_prob": replay_prob,
                "wallclock": time.perf_counter() - t_start,
            }
        )
        if (
            checkpoint_writer is not None
            and config.checkpoint_interval
            and (i + 1) % config.checkpoint_interval == 0
        ):
            checkpoint_writer(i, params, opt)

    return params, report
