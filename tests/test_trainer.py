import dataclasses
import json
import math

import numpy as np
import pytest

from flowseek import trainer
from flowseek.environments import make_env, toydag
from flowseek.environments.game24 import make_instance
from flowseek.errors import ConfigError, FlowseekError, InvalidActionError, StructuralError
from flowseek.exploration import ExplorationSchedule
from flowseek.oracle import write_offline_game24
from flowseek.policy import OptimizerState, apply_update, init_params, trajectory_logpf_and_grad
from flowseek.trainer import (
    LocalSearchConfig,
    TrainConfig,
    build_envs,
    ingest_offline,
    train,
)

from conftest import random_params, rollout, two_terminal_instance


def toy_config(**overrides):
    base = dict(
        env_id="toydag",
        iterations=50,
        batch_size=4,
        learning_rate=0.05,
        loss="logvar",
        featurizer="tabular",
        policy_variant="linear",
        seed=11,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_smoke_one_iteration():
    config = toy_config(iterations=1, batch_size=2)
    params, report = train(config, [two_terminal_instance()])
    assert len(report.records) == 1
    assert report.records[0]["iteration"] == 0
    assert report.records[0]["mean_loss"] >= 0.0


def test_determinism_identical_reports_and_params():
    inst = two_terminal_instance()
    p1, r1 = train(toy_config(), [inst])
    p2, r2 = train(toy_config(), [inst])
    np.testing.assert_array_equal(p1.vector, p2.vector)
    assert len(r1.records) == len(r2.records)
    for a, b in zip(r1.records, r2.records):
        for key in ("iteration", "phase", "mean_loss", "mean_reward", "buffer_size",
                    "eps", "beta", "replay_prob"):
            assert a[key] == b[key], key
    assert r1.trajectory_log == r2.trajectory_log


def test_different_seeds_differ():
    inst = two_terminal_instance()
    p1, _ = train(toy_config(seed=1), [inst])
    p2, _ = train(toy_config(seed=2), [inst])
    assert not np.array_equal(p1.vector, p2.vector)


def test_config_validation():
    with pytest.raises(ValueError):
        toy_config(iterations=0)
    with pytest.raises(ValueError):
        toy_config(batch_size=1)  # logvar needs M >= 2
    TrainConfig(env_id="toydag", batch_size=1, loss="tb_logz")  # TB allows singletons
    with pytest.raises(ValueError):
        toy_config(loss="nonsense")
    # a clip at or below 0 flips or zeroes the gradient; an interval below 1
    # writes no checkpoint (0) or one every |k| iterations (-k); an unknown
    # lr schedule trains at a constant lr, a num_recon below 1 skips local
    # search and a k_mode below 1 keeps no candidate; a negative log Z step
    # climbs the TB loss; an empty batch has no loss, whatever the loss
    for bad in ({"max_grad_norm": -1.0}, {"max_grad_norm": 0.0},
                {"checkpoint_interval": 0}, {"checkpoint_interval": -5},
                {"lr_schedule": "cosin"}, {"learning_rate": 0.0}, {"learning_rate": -0.05},
                {"hidden_dim": 0, "policy_variant": "mlp"},
                {"local_search": LocalSearchConfig(num_recon=0)},
                {"local_search": LocalSearchConfig(num_recon=-2)},
                {"local_search": LocalSearchConfig(k_mode=0)},
                {"local_search": LocalSearchConfig(k_mode=-3)},
                {"local_search": LocalSearchConfig(k_mode="unifrom")},
                {"logz_learning_rate": -1.0, "loss": "tb_logz"},
                {"logz_learning_rate": 0.0, "loss": "tb_logz"},
                {"reward_floor": 0.0}, {"reward_floor": -1.0},
                {"batch_size": 0, "loss": "tb_logz"}, {"batch_size": -1, "loss": "tb_logz"}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            toy_config(**bad)
    toy_config(local_search=LocalSearchConfig(k_mode=2), logz_learning_rate=0.01)


def test_trajectory_logpf_idempotent_and_fresh(toy_env):
    params = random_params("linear", toy_env, seed=5)
    traj = rollout(toy_env, seed=1, eps=1.0)
    once, grad_once = trajectory_logpf_and_grad(params, traj, toy_env)
    rescored = dataclasses.replace(traj)  # a copy scores as the original does
    twice, grad_twice = trajectory_logpf_and_grad(params, rescored, toy_env)
    assert once == twice
    np.testing.assert_array_equal(grad_once, grad_twice)
    assert rescored.states == traj.states and rescored.actions == traj.actions
    # zero-gradient update leaves the scores unchanged
    opt = OptimizerState(kind="sgd", learning_rate=0.1)
    same_params = apply_update(params, np.zeros_like(params.vector), opt)
    after, _ = trajectory_logpf_and_grad(same_params, traj, toy_env)
    assert after == once


def test_trajectory_logpf_rejects_corrupt_action(toy_env):
    from flowseek.flow_core import Trajectory

    params = init_params("linear", toy_env.feature_dim)
    bad = Trajectory("toy-2term", ["s0", "mid_l"], ["no-such-action"],
                     reward=1.0, is_complete=True)
    with pytest.raises(InvalidActionError):
        trajectory_logpf_and_grad(params, bad, toy_env)


def test_trained_params_change_stored_scores(toy_env):
    # stored uniform-rollout terms differ from the converged policy's scores
    inst = two_terminal_instance()
    traj = rollout(toy_env, seed=2, eps=1.0)
    uniform_terms, _ = trajectory_logpf_and_grad(
        init_params("linear", toy_env.feature_dim), traj, toy_env
    )
    config = toy_config(iterations=400)
    params, _ = train(config, [inst])
    env = build_envs(config, [inst])[inst.instance_id]
    trained_terms, _ = trajectory_logpf_and_grad(params, traj, env)
    assert trained_terms != uniform_terms


def spy_updates(monkeypatch):
    """Record (lr_override, parameter step) for every optimizer update train() makes."""
    steps = []
    real = trainer.apply_update

    def spy(params, grad, opt, lr_override=None):
        new = real(params, grad, opt, lr_override=lr_override)
        steps.append((lr_override, new.vector - params.vector))
        return new

    monkeypatch.setattr(trainer, "apply_update", spy)
    return steps


def test_cosine_lr_schedule(monkeypatch):
    steps = spy_updates(monkeypatch)
    config = toy_config(iterations=20, lr_schedule="cosine")
    train(config, [two_terminal_instance()])
    lrs = [lr for lr, _ in steps]
    assert len(lrs) == 20
    for i, lr in enumerate(lrs):
        assert lr == pytest.approx(0.05 * 0.5 * (1.0 + math.cos(math.pi * i / 20)), rel=1e-15)
    assert lrs[0] == 0.05 and lrs[10] == pytest.approx(0.025)


def test_max_grad_norm_bounds_sgd_step(monkeypatch):
    steps = spy_updates(monkeypatch)
    config = toy_config(iterations=30, optimizer="sgd", learning_rate=0.5, max_grad_norm=0.01)
    train(config, [two_terminal_instance()])
    bound = 0.5 * 0.01
    norms = [float(np.linalg.norm(step)) for _, step in steps]
    assert all(n <= bound * (1 + 1e-9) for n in norms), max(norms)
    assert max(norms) > 0.99 * bound  # the clip actually binds


def test_per_instance_logz(monkeypatch):
    seen_z = []
    real = trainer.loss_tb_logz

    def spy(phis, z, grads=None):
        seen_z.append(z)
        return real(phis, z, grads)

    monkeypatch.setattr(trainer, "loss_tb_logz", spy)
    instances = toydag.generate_instances(2, 1)
    config = toy_config(iterations=40, loss="tb_logz", logz_shared=False, logz_init=0.5)
    train(config, instances)
    # round-robin: even iterations see instance 0's log Z, odd ones instance 1's
    assert seen_z[0] == seen_z[1] == 0.5
    assert seen_z[-2] != seen_z[-1]
    seen_z.clear()
    train(dataclasses.replace(config, logz_shared=True), instances)
    assert seen_z[0] == 0.5 and seen_z[1] != 0.5


def test_offline_ingest_roundtrip(tmp_path):
    insts = [make_instance([4, 4, 6, 8], "g1"), make_instance([1, 3, 5, 6], "g2")]
    path = tmp_path / "off.jsonl"
    write_offline_game24(path, insts)
    envs = {i.instance_id: make_env(i) for i in insts}
    trajs, rejected = ingest_offline(path, envs)
    assert rejected == 0
    assert all(t.is_complete for t in trajs)
    assert {t.instance_id for t in trajs} == {"g1", "g2"}


def test_offline_ingest_empty_file_errors(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(FlowseekError):
        ingest_offline(path, {})


def test_offline_ingest_rejects_bad_records(tmp_path):
    inst = make_instance([4, 4, 6, 8], "g1")
    path = tmp_path / "off.jsonl"
    good = {"instance_id": "g1", "actions": ["4 + 8 = 12", "6 - 4 = 2", "2 * 12 = 24"]}
    bad = {"instance_id": "g1", "actions": ["4 + 9 = 13"]}
    missing = {"instance_id": "nope", "actions": []}
    path.write_text("\n".join(json.dumps(r) for r in (good, bad, missing)) + "\n")
    trajs, rejected = ingest_offline(path, {"g1": make_env(inst)})
    assert len(trajs) == 1
    assert rejected == 2


MISSHAPEN_OFFLINE_LINES = [
    '[1,2]',
    'null',
    '"x"',
    '{"instance_id":"g1","actions":7}',
    '{"instance_id":["g1"],"actions":[]}',
    '{"instance_id":"g1","actions":[7]}',
]


@pytest.mark.parametrize("line", MISSHAPEN_OFFLINE_LINES)
def test_offline_ingest_rejects_misshapen_records(tmp_path, line):
    inst = make_instance([4, 4, 6, 8], "g1")
    good = {"instance_id": "g1", "actions": ["4 + 8 = 12", "6 - 4 = 2", "2 * 12 = 24"]}
    path = tmp_path / "off.jsonl"
    path.write_text(json.dumps(good) + "\n" + line + "\n")
    trajs, rejected = ingest_offline(path, {"g1": make_env(inst)})
    assert len(trajs) == 1
    assert rejected == 1
    path.write_text(line + "\n")
    with pytest.raises(FlowseekError, match="1 rejected"):
        ingest_offline(path, {"g1": make_env(inst)})


def test_exploitation_fallback_recorded():
    # replay_prob 1.0 forces exploitation from iteration 0 with an empty buffer
    sched = ExplorationSchedule(replay_prob_start=1.0, replay_prob_end=1.0,
                                total_iterations=4)
    config = toy_config(iterations=4, schedules=sched)
    _, report = train(config, [two_terminal_instance()])
    assert report.records[0]["phase"] == "explore_fallback"
    phases = {r["phase"] for r in report.records}
    assert phases <= {"explore_fallback", "exploit"}


def test_buffer_grows_only_during_exploration():
    sched = ExplorationSchedule(replay_prob_start=0.5, replay_prob_end=0.5,
                                total_iterations=60)
    config = toy_config(iterations=60, schedules=sched)
    _, report = train(config, [two_terminal_instance()])
    size = 0
    for rec in report.records:
        if rec["phase"] == "exploit":
            assert rec["buffer_size"] == size
        size = rec["buffer_size"]
    assert any(r["phase"] == "exploit" for r in report.records)


def test_small_buffer_starves_no_instance():
    # a pool per instance: the instance with the highest rewards cannot evict
    # the others' entries, so each instance falls back to exploring only on its
    # first exploit visit (with one buffer-wide pool this recipe had 41 fallbacks,
    # 30 on one instance)
    from flowseek.environments import generate_instances

    instances = generate_instances("game24", 4, 11)
    sched = ExplorationSchedule(replay_prob_start=0.8, replay_prob_end=0.9,
                                total_iterations=200)
    config = TrainConfig(env_id="game24", iterations=200, batch_size=4, policy_variant="mlp",
                         hidden_dim=16, buffer_capacity=5, seed=3, schedules=sched)
    _, report = train(config, instances)
    fallbacks = [instances[r["iteration"] % len(instances)].instance_id
                 for r in report.records if r["phase"] == "explore_fallback"]
    assert sorted(fallbacks) == sorted(set(fallbacks))
    assert sum(r["phase"] == "exploit" for r in report.records) > 100


def test_offline_branch_used_for_game24(tmp_path):
    insts = [make_instance([4, 4, 6, 8], "g1")]
    off = tmp_path / "off.jsonl"
    write_offline_game24(off, insts)
    sched = ExplorationSchedule(replay_prob_start=1.0, replay_prob_end=1.0,
                                total_iterations=6)
    config = TrainConfig(
        env_id="game24", iterations=6, batch_size=4, learning_rate=1e-3,
        loss="logvar", seed=3, schedules=sched, offline_data_path=str(off),
    )
    _, report = train(config, insts)
    assert all(r["phase"] == "exploit" for r in report.records)
    # offline trajectories are all solutions, so the mean reward stays above w
    assert all(r["mean_reward"] > 100.0 for r in report.records)


def test_tv_distance_decreases_at_checkpoints():
    from flowseek.oracle import enumerate_dag, policy_terminal_dist, tv_distance

    inst = two_terminal_instance()
    snapshots = []
    config = toy_config(iterations=600, checkpoint_interval=150)
    _, _ = train(config, [inst],
                 checkpoint_writer=lambda i, p, o: snapshots.append((i, p)))
    env = build_envs(config, [inst])[inst.instance_id]
    target = enumerate_dag(inst, env).target_terminal_dist
    tvs = [tv_distance(policy_terminal_dist(p, inst, env), target) for _, p in snapshots]
    assert len(tvs) == 4
    assert tvs[-1] < 0.05
    assert tvs[-1] < tvs[0]


def test_mean_reward_non_decreasing_window_on_toy_fixture():
    config = toy_config(iterations=300)
    _, report = train(config, [two_terminal_instance()])
    first = np.mean([r["mean_reward"] for r in report.records[:50]])
    last = np.mean([r["mean_reward"] for r in report.records[-50:]])
    assert last >= first * 0.9  # soft assertion with a 10% band


def test_local_search_to_training_flag():
    config = toy_config(
        iterations=40,
        local_search=LocalSearchConfig(enabled=True, num_recon=4, to_training=True),
    )
    params, report = train(config, [two_terminal_instance()])
    assert len(report.records) == 40


@pytest.mark.parametrize("variant", ["linear", "mlp"])
def test_every_logged_phi_is_scored_at_the_iteration_params(variant):
    from flowseek.environments import generate_instances, replay_trajectory
    from flowseek.flow_core import phi

    instances = generate_instances("blocksworld", 2, seed=4, difficulty="4")
    config = TrainConfig(env_id="blocksworld", iterations=40, batch_size=4, seed=3,
                         learning_rate=0.05, policy_variant=variant, hidden_dim=4,
                         local_search=LocalSearchConfig(num_recon=4, to_training=True),
                         checkpoint_interval=1)
    envs = build_envs(config, instances)
    dim = envs[instances[0].instance_id].feature_dim
    snapshots = [init_params(variant, dim, 4, seed=3)]  # the params iteration i scores with
    _, report = train(config, instances, envs=envs,
                      checkpoint_writer=lambda i, params, opt: snapshots.append(params))
    found, scored = {}, {}
    for rec in report.trajectory_log:
        i, env = rec["iteration"], envs[rec["instance_id"]]
        if rec["phase"] == "local_search":
            found.setdefault(i, []).append(rec["actions"])
            continue
        scored.setdefault(i, []).append(rec["actions"])
        traj = replay_trajectory(env, rec["actions"])
        terms, _ = trajectory_logpf_and_grad(snapshots[i], traj, env)
        assert rec["phi"] == phi(traj, env, sum(terms)), i
    assert found and set(scored) == set(range(40))
    for i, actions in found.items():  # each find enters the loss after the batch
        assert scored[i][config.batch_size:] == actions


def test_report_csv_roundtrip(tmp_path):
    config = toy_config(iterations=5)
    _, report = train(config, [two_terminal_instance()])
    path = tmp_path / "report.csv"
    report.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "iteration,phase,mean_loss,mean_reward,buffer_size,eps,beta,replay_prob"
    assert len(lines) == 6
    # wallclock is recorded in memory but kept out of the deterministic CSV
    assert "wallclock" in report.records[0]
    path2 = tmp_path / "report2.csv"
    report.write_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_mismatched_feature_dims_raise_structural_error():
    instances = toydag.generate_instances(3, 1)
    assert len({make_env(inst).feature_dim for inst in instances}) > 1
    with pytest.raises(StructuralError, match="feature dims"):
        build_envs(TrainConfig(env_id="toydag"), instances)
    assert not issubclass(StructuralError, ConfigError)
    # the tabular featurizer gives every instance one shared dim
    envs = build_envs(TrainConfig(env_id="toydag", featurizer="tabular"), instances)
    assert len({env.feature_dim for env in envs.values()}) == 1


def test_build_envs_rejects_instances_of_another_env():
    instances = [two_terminal_instance(), make_instance([4, 4, 6, 8], "g24")]
    with pytest.raises(StructuralError, match="do not match env_id 'toydag'"):
        build_envs(TrainConfig(env_id="toydag"), instances)


def test_library_path_rejects_a_repeated_instance_id():
    # two different hands under one id: envs keyed by id would keep only the
    # second, and `train` would run on it alone without a word
    first, second = make_instance([2, 7, 8, 13], "hand"), make_instance([2, 2, 6, 11], "other")
    twins = [first, dataclasses.replace(second, instance_id="hand")]
    config = TrainConfig(env_id="game24", iterations=2)
    with pytest.raises(FlowseekError, match="instance_id 'hand' is repeated"):
        build_envs(config, twins)
    with pytest.raises(FlowseekError, match="instance_id 'hand' is repeated"):
        train(config, twins)


def test_build_envs_uses_a_given_tabular_index():
    from flowseek.environments import TabularIndex

    trained_on = toydag.generate_instances(2, 1)
    table = TabularIndex.build([make_env(inst) for inst in trained_on])
    # a stored index keeps its rows even for instances it was not built over
    others = toydag.generate_instances(2, 2)
    envs = build_envs(TrainConfig(env_id="toydag", featurizer="tabular"), others, table)
    assert all(env.table is table for env in envs.values())
    assert {env.feature_dim for env in envs.values()} == {table.dim}
