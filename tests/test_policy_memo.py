"""The per-iteration policy memo: one forward pass per decision point.

`trainer.train` gives each iteration one dict from the env's `decision_key`
to its distribution at that iteration's parameters. The explore rollouts and
the rescoring read it, and a trajectory drawn twice into one batch is scored
once. None of this may change a draw, a log-prob or a gradient.
"""

import collections

import numpy as np
import pytest

from flowseek import policy, trainer
from flowseek.environments import generate_instances, make_env
from flowseek.environments.game24 import make_instance
from flowseek.errors import InvalidActionError
from flowseek.exploration import ExplorationSchedule, sample_trajectory_mixed
from flowseek.flow_core import Trajectory
from flowseek.oracle import write_offline_game24
from flowseek.policy import trajectory_logpf_and_grad
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

    def counted(params, traj, env, memo=None):
        seen_params.append(params)
        scored[(id(params), tuple(traj.actions))] += 1
        return original(params, traj, env, memo)

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
    memo = {}
    good = sample_trajectory_mixed(params, env, 0.0, 1.0, substream(0, "memo"), memo=memo)
    assert env.decision_key(env.s0) in memo
    bad = Trajectory("g", good.states, ["no-such-action"] + good.actions[1:],
                     good.logpf_terms, reward=good.reward, is_complete=True)
    with pytest.raises(InvalidActionError):
        trajectory_logpf_and_grad(params, bad, env, memo)


@pytest.mark.parametrize("variant", ["linear", "mlp"])
@pytest.mark.parametrize("env_id,difficulty", [
    ("game24", None), ("cube2x2", "2"), ("blocksworld", "4"),
])
def test_rollouts_sharing_a_memo_keep_their_own_gradient(env_id, difficulty, variant):
    for j, inst in enumerate(generate_instances(env_id, 3, seed=3, difficulty=difficulty)):
        env, ref_env = make_env(inst), make_env(inst)
        params = random_params(variant, env, hidden=4, seed=j)
        memo = {}
        for k, (eps, beta) in enumerate([(0.0, 1.0), (0.3, 2.0), (0.0, 0.0), (1.0, 1.0)] * 4):
            grad = np.zeros_like(params.vector)
            rng, ref_rng = substream(k, "memo", j), substream(k, "memo", j)
            traj = sample_trajectory_mixed(params, env, eps, beta, rng, grad, memo=memo)
            plain = sample_trajectory_mixed(params, ref_env, eps, beta, ref_rng)
            assert (traj.actions, traj.logpf_terms) == (plain.actions, plain.logpf_terms)
            assert rng.random() == ref_rng.random()
            terms, want = trajectory_logpf_and_grad(params, traj, ref_env)
            assert traj.logpf_terms == terms
            assert np.array_equal(grad, want)  # equal floats, no tolerance
