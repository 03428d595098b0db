"""The snapshot's policy memo: one forward pass per decision point.

Each `PolicyParams` snapshot keeps, per env, a dict from the env's
`decision_key` to its distribution at that snapshot's read-only vector.
Every rollout and scoring pass at one snapshot reads it, so in training each
iteration's params share it between the explore rollouts and the one scoring
loop, and `apply_update`'s new snapshot starts an empty one. Each
distribution keeps its tempered cdfs, and each distinct action sequence of a
batch is scored once. None of this may change a draw, a log-prob or a
gradient.
"""

import collections
import gc
import math

import numpy as np
import pytest

from flowseek import policy, trainer
from flowseek.environments import generate_instances, make_env
from flowseek.environments.game24 import make_instance
from flowseek.errors import InvalidActionError
from flowseek.exploration import ExplorationSchedule, sample_trajectory_mixed
from flowseek.flow_core import Trajectory
from flowseek.oracle import write_offline_game24
from flowseek.policy import OptimizerState, PolicyParams, apply_update, trajectory_logpf_and_grad
from flowseek.rngutil import substream
from flowseek.trainer import LocalSearchConfig, TrainConfig, train

from conftest import random_params

HANDS = ([4, 4, 6, 8], [1, 2, 3, 4])


def game24_config(tmp_path, instances, **overrides):
    offline = tmp_path / "offline.jsonl"
    write_offline_game24(offline, instances)
    fields = dict(
        env_id="game24", iterations=30, batch_size=8, seed=5, policy_variant="mlp",
        hidden_dim=8, offline_data_path=str(offline),
        local_search=LocalSearchConfig(to_training=True),
    )
    fields.update(overrides)
    return TrainConfig(**fields)


def test_each_decision_point_runs_one_forward_pass_per_iteration(tmp_path, monkeypatch):
    instances = [make_instance(h, f"g{i}") for i, h in enumerate(HANDS)]
    config = game24_config(tmp_path, instances)
    calls = collections.Counter()
    seen_params = []  # kept alive, so no two iterations' params share an id
    original = policy.action_logits

    def counted(params, state, env):
        seen_params.append(params)
        calls[(id(params), id(env), env.decision_key(state))] += 1
        return original(params, state, env)

    monkeypatch.setattr(policy, "action_logits", counted)
    _, report = train(config, instances)
    assert max(calls.values()) == 1
    phases = collections.Counter(rec["phase"] for rec in report.records)
    assert phases["explore"] and phases["exploit"]
    # game24's key drops the equation history, so the rollouts of a batch
    # share decision points, and the passes fall below the steps logged
    steps = sum(len(rec["actions"]) for rec in report.trajectory_log)
    assert sum(calls.values()) < steps


def test_a_trajectory_drawn_twice_is_scored_once(tmp_path, monkeypatch):
    instances = [make_instance(h, f"g{i}") for i, h in enumerate(HANDS)]
    config = game24_config(tmp_path, instances, schedules=ExplorationSchedule(
        replay_prob_start=1.0, replay_prob_end=1.0, total_iterations=30))
    scored = collections.Counter()
    seen_params = []
    original = trainer.trajectory_logpf_and_grad

    def counted(params, traj, env):
        seen_params.append(params)
        scored[(id(params), tuple(traj.actions))] += 1
        return original(params, traj, env)

    monkeypatch.setattr(trainer, "trajectory_logpf_and_grad", counted)
    _, report = train(config, instances)
    assert max(scored.values()) == 1
    drawn = collections.Counter(
        (rec["iteration"], tuple(rec["actions"]))
        for rec in report.trajectory_log if rec["phase"] == "exploit"
    )
    assert max(drawn.values()) > 1  # the offline draws do repeat within a batch
    assert len(scored) == len(drawn)


def test_an_invalid_action_raises_through_a_filled_memo():
    env = make_env(make_instance([4, 4, 6, 8], "g"))
    params = random_params("linear", env, seed=2)
    good = sample_trajectory_mixed(params, env, 0.0, 1.0, substream(0, "memo"))
    assert env.decision_key(env.s0) in params.memos[env]
    bad = Trajectory("g", good.states, ["no-such-action"] + good.actions[1:],
                     reward=good.reward, is_complete=True)
    with pytest.raises(InvalidActionError):
        trajectory_logpf_and_grad(params, bad, env)


def test_every_batch_trajectory_is_scored_once_per_iteration(tmp_path, monkeypatch):
    # explore rollouts and local-search finds sent to training go through the
    # same loop as the exploit draws: one call per distinct action sequence
    instances = [make_instance(h, f"g{i}") for i, h in enumerate(HANDS)]
    config = game24_config(tmp_path, instances)
    calls = []
    seen_params = []  # kept alive, so no two iterations' params share an id
    original = trainer.trajectory_logpf_and_grad

    def counted(params, traj, env):
        seen_params.append(params)
        calls.append((id(params), tuple(traj.actions)))
        return original(params, traj, env)

    monkeypatch.setattr(trainer, "trajectory_logpf_and_grad", counted)
    _, report = train(config, instances)
    iteration_of = {}  # each iteration scores at its own params
    for params_id, _ in calls:
        iteration_of.setdefault(params_id, len(iteration_of))
    scored = collections.defaultdict(list)
    for params_id, actions in calls:
        scored[iteration_of[params_id]].append(actions)
    batches = collections.defaultdict(set)
    for rec in report.trajectory_log:
        if rec["phase"] != "local_search":
            batches[rec["iteration"]].add(tuple(rec["actions"]))
    assert len(scored) == len(batches) == config.iterations
    for i, batch in batches.items():
        assert sorted(scored[i]) == sorted(batch), i
    finds = {(rec["iteration"], tuple(rec["actions"])) for rec in report.trajectory_log
             if rec["phase"] == "local_search"}
    explored = [i for i, rec in enumerate(report.records) if rec["phase"] == "explore"]
    assert explored and finds
    assert all(actions in batches[i] for i, actions in finds)


@pytest.mark.parametrize("variant", ["linear", "mlp"])
def test_rollouts_sharing_a_memo_temper_each_decision_point_once(variant, monkeypatch):
    # every rollout at one snapshot shares its memo; a second snapshot with an
    # equal vector keeps a memo of its own, so it tempers its own cdfs
    env = make_env(generate_instances("game24", 1, seed=3)[0])
    params = random_params(variant, env, hidden=4, seed=1)
    tempered = collections.Counter()
    seen_dists = []  # kept alive, so no two distributions share an id
    original = policy.tempered_cdf

    def counted(dist, beta):
        seen_dists.append(dist)
        tempered[(id(dist), beta)] += 1
        return original(dist, beta)

    monkeypatch.setattr(policy, "tempered_cdf", counted)
    fresh = []  # one new snapshot per reference rollout, kept alive
    for k in range(40):
        beta = (0.5, 1.0, 2.0, math.inf)[k % 4]
        rng, ref_rng = substream(k, "temper"), substream(k, "temper")
        got = sample_trajectory_mixed(params, env, 0.0, beta, rng)
        fresh.append(PolicyParams(variant, params.feature_dim, params.hidden_dim, params.vector))
        want = sample_trajectory_mixed(fresh[-1], env, 0.0, beta, ref_rng)
        assert got.actions == want.actions, k
        assert rng.random() == ref_rng.random()  # both drew the same numbers
    memo = params.memos[env]
    shared = {id(dist) for dist in memo.values()}
    own = {id(dist) for snapshot in fresh for dist in snapshot.memos[env].values()}
    assert shared and own and not shared & own
    in_memo = collections.Counter({key: n for key, n in tempered.items() if key[0] in shared})
    assert in_memo and max(in_memo.values()) == 1
    assert {beta for _, beta in in_memo} == {0.5, 1.0, 2.0, math.inf}
    # each memo entry holds exactly the cdfs the rollouts tempered at it
    assert sum(len(dist.cdfs) for dist in memo.values()) == len(in_memo)
    # the fresh snapshots tempered their own cdfs, more often than the shared ones
    assert set(tempered) == set(in_memo) | {key for key in tempered if key[0] in own}
    assert len(in_memo) < sum(n for key, n in tempered.items() if key[0] in own)


def test_the_vector_is_a_read_only_copy():
    vec = np.zeros(3)
    params = PolicyParams("linear", 3, 4, vec)
    with pytest.raises(ValueError):
        params.vector[0] = 1.0
    vec[0] = 1.0  # the caller's array stays writeable, and the snapshot does not see it
    assert params.vector[0] == 0.0


def test_an_optimizer_step_returns_a_snapshot_with_an_empty_memo():
    env = make_env(make_instance([4, 4, 6, 8], "g"))
    params = random_params("mlp", env, hidden=4, seed=2)
    traj = sample_trajectory_mixed(params, env, 0.0, 1.0, substream(0, "step"))
    _, grad = trajectory_logpf_and_grad(params, traj, env)
    assert params.memos[env]
    updated = apply_update(params, grad, OptimizerState(learning_rate=0.1))
    assert len(updated.memos) == 0
    assert params.memos[env]  # the old snapshot keeps its own


def test_an_envs_memo_goes_with_the_env():
    # the benchmark's sample and oracle passes build fresh envs for each unit
    # at one params, so a memo that outlived its env would pile up
    inst = make_instance([4, 4, 6, 8], "g")
    params = random_params("linear", make_env(inst), seed=2)
    kept = make_env(inst)
    for k in range(3):
        env = make_env(inst)
        sample_trajectory_mixed(params, env, 0.0, 1.0, substream(k, "drop"))
        sample_trajectory_mixed(params, kept, 0.0, 1.0, substream(k, "drop"))
        assert len(params.memos) == 2
        del env
        gc.collect()
        assert list(params.memos.keys()) == [kept]
