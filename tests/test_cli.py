import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowseek
from flowseek.cli import main
from flowseek.environments import ENV_IDS, EnvInstance, read_instances, write_instances
from flowseek.environments.game24 import generate_instances as game24_instances
from flowseek.environments.game24 import make_instance, solve_game24
from flowseek.environments.toydag import generate_instances as toydag_instances
from flowseek.environments.toydag import make_graph_goal

from conftest import two_terminal_instance


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_nonmanifest_bytes(path):
    return path.read_bytes()


def test_gen_deterministic_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run_cli("gen", "--env", "cube2x2", "--count", 10, "--seed", 7, "--out", out1) == 0
    assert run_cli("gen", "--env", "cube2x2", "--count", 10, "--seed", 7, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_game24_all_solvable(tmp_path):
    out = tmp_path / "g.jsonl"
    assert run_cli("gen", "--env", "game24", "--count", 5, "--seed", 3, "--out", out) == 0
    for inst in read_instances(out):
        values = inst.s0.split("|left=")[1].split()
        assert solve_game24(values)


def test_gen_unknown_env_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli("gen", "--env", "not-an-env", "--count", 1, "--out", tmp_path / "x.jsonl")
    assert err.value.code == 2


@pytest.mark.parametrize("count", [0, -1])
def test_gen_count_below_one_is_usage_error(tmp_path, count):
    out = tmp_path / "x.jsonl"
    with pytest.raises(SystemExit) as err:
        run_cli("gen", "--env", "toydag", "--count", count, "--seed", 1, "--out", out)
    assert err.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "env_id, difficulty",
    [("game24", "13-1"), ("game24", "a-b"), ("game24", f"1-{2**63}"),
     ("cube2x2", "x"), ("cube2x2", "9"), ("blocksworld", "x"), ("blocksworld", "3"),
     ("logicchain", "1.5"), ("logicchain", "9"), ("arc1d", "x"), ("toydag", "1")],
)
def test_gen_difficulty_the_env_cannot_honour_is_data_error(tmp_path, capsys, env_id, difficulty):
    out = tmp_path / "x.jsonl"
    code = run_cli("gen", "--env", env_id, "--count", 2, "--seed", 1,
                   "--difficulty", difficulty, "--out", out)
    assert code == 3
    assert repr(difficulty) in capsys.readouterr().err
    assert not out.exists()


def test_env_seed_fallback(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    monkeypatch.setenv("FLOWSEEK_SEED", "99")
    run_cli("gen", "--env", "toydag", "--count", 3, "--out", out1)
    monkeypatch.delenv("FLOWSEEK_SEED")
    run_cli("gen", "--env", "toydag", "--count", 3, "--seed", 99, "--out", out2)
    assert out1.read_bytes() == out2.read_bytes()


def write_toy_setup(tmp_path, iterations=400, loss="logvar"):
    inst_path = tmp_path / "instances.jsonl"
    write_instances(inst_path, [two_terminal_instance()])
    config = {
        "env_id": "toydag",
        "instances_path": str(inst_path),
        "iterations": iterations,
        "batch_size": 4,
        "learning_rate": 0.05,
        "loss": loss,
        "seed": 5,
        "policy": {"variant": "linear", "featurizer": "tabular"},
        "out_dir": str(tmp_path / "run"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return config_path, inst_path, tmp_path / "run"


def test_train_then_oracle_toy_fixture(tmp_path, capsys):
    config_path, inst_path, run_dir = write_toy_setup(tmp_path)
    assert run_cli("train", config_path) == 0
    assert (run_dir / "checkpoint.json").exists()
    assert (run_dir / "report.csv").exists()
    assert (run_dir / "trajectories.jsonl").exists()
    assert (run_dir / "manifest-train.json").exists()

    oracle_out = tmp_path / "oracle.csv"
    assert run_cli(
        "oracle", "--instances", inst_path, "--checkpoint", run_dir / "checkpoint.json",
        "--out", oracle_out,
    ) == 0
    rows = oracle_out.read_text().strip().split("\n")
    header = rows[0].split(",")
    row = dict(zip(header, rows[1].split(",")))
    assert float(row["Z"]) == pytest.approx(4.0)
    assert int(row["n_trajectories"]) == 2
    assert float(row["tv_vs_policy"]) < 0.05


def test_train_tb_logz_also_converges(tmp_path):
    config_path, inst_path, run_dir = write_toy_setup(tmp_path, iterations=800, loss="tb_logz")
    assert run_cli("train", config_path) == 0
    oracle_out = tmp_path / "oracle.csv"
    run_cli("oracle", "--instances", inst_path, "--checkpoint",
            run_dir / "checkpoint.json", "--out", oracle_out)
    row = oracle_out.read_text().strip().split("\n")[1].split(",")
    assert float(row[4]) < 0.05  # tv_vs_policy column


def test_train_byte_identical_outputs(tmp_path):
    config_path, _, run_dir = write_toy_setup(tmp_path, iterations=30)
    assert run_cli("train", config_path) == 0
    first = {
        name: (run_dir / name).read_bytes()
        for name in ("checkpoint.json", "report.csv", "trajectories.jsonl")
    }
    assert run_cli("train", config_path) == 0
    for name, body in first.items():
        assert (run_dir / name).read_bytes() == body, name


def test_tabular_train_builds_envs_once(tmp_path, monkeypatch):
    from flowseek import cli
    from flowseek.environments import TabularIndex

    builds = []
    real_build = TabularIndex.build.__func__
    monkeypatch.setattr(TabularIndex, "build",
                        classmethod(lambda cls, envs: builds.append(1) or real_build(cls, envs)))
    config_path, _, run_dir = write_toy_setup(tmp_path, iterations=30)
    assert run_cli("train", config_path) == 0
    assert len(builds) == 1
    outputs = {name: (run_dir / name).read_bytes()
               for name in ("checkpoint.json", "report.csv", "trajectories.jsonl")}
    # the same run with train() building its own envs writes the same bytes
    real_train = cli.train
    monkeypatch.setattr(cli, "train", lambda config, instances, checkpoint_writer, envs:
                        real_train(config, instances, checkpoint_writer=checkpoint_writer))
    assert run_cli("train", config_path) == 0
    assert len(builds) == 3
    for name, body in outputs.items():
        assert (run_dir / name).read_bytes() == body, name


def test_train_periodic_checkpoints(tmp_path):
    config_path, _, run_dir = write_toy_setup(tmp_path, iterations=20)
    doc = json.loads(config_path.read_text())
    doc["checkpoint_interval"] = 10
    config_path.write_text(json.dumps(doc))
    assert run_cli("train", config_path) == 0
    assert (run_dir / "checkpoint-10.json").exists()
    assert (run_dir / "checkpoint-20.json").exists()
    # the final checkpoint keeps the optimizer state, so it is the last periodic one
    final = run_dir / "checkpoint.json"
    assert final.read_bytes() == (run_dir / "checkpoint-20.json").read_bytes()
    assert json.loads(final.read_text())["optimizer"]["step"] == 20


def test_train_flags_override_the_config_and_the_manifest_records_the_merge(tmp_path):
    config_path, _, config_dir = write_toy_setup(tmp_path, iterations=20)
    run_dir = tmp_path / "flagged"
    assert run_cli("train", config_path, "--seed", 11, "--iterations", 3, "--loss", "tb_logz",
                   "--out-dir", run_dir) == 0
    assert not config_dir.exists()
    manifest = json.loads((run_dir / "manifest-train.json").read_text())
    assert manifest["seed"] == 11
    config = manifest["config"]
    assert (config["seed"], config["iterations"], config["loss"], config["out_dir"]) == (
        11, 3, "tb_logz", str(run_dir))
    assert config["batch_size"] == 4  # a field no flag names keeps the file's value
    assert len((run_dir / "report.csv").read_text().splitlines()) == 1 + 3


def test_train_missing_instances_is_data_error(tmp_path):
    config = {
        "env_id": "toydag",
        "instances_path": str(tmp_path / "missing.jsonl"),
        "out_dir": str(tmp_path / "run"),
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert run_cli("train", path) == 3


def test_train_misshapen_offline_records_is_data_error(tmp_path, capsys):
    config_path, _, _ = write_toy_setup(tmp_path, iterations=2)
    offline = tmp_path / "offline.jsonl"
    offline.write_text('[1,2]\nnull\n"x"\n{"instance_id":"toy-2term","actions":7}\n')
    doc = json.loads(config_path.read_text())
    doc["offline_data_path"] = str(offline)
    config_path.write_text(json.dumps(doc))
    assert run_cli("train", config_path) == 3
    assert "4 rejected" in capsys.readouterr().err


def test_train_schema_violation_is_usage_error(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"env_id": "toydag", "instances_path": "x", "loss": "bogus"}))
    assert run_cli("train", path) == 2
    path.write_text(json.dumps({"env_id": "toydag"}))
    assert run_cli("train", path) == 2
    path.write_text("{not json")
    assert run_cli("train", path) == 2


def test_numeric_failure_exit_code(tmp_path, monkeypatch):
    from flowseek import cli
    from flowseek.errors import NumericError

    config_path, _, _ = write_toy_setup(tmp_path, iterations=5)

    def explode(*args, **kwargs):
        raise NumericError("non-finite loss nan at iteration 0")

    monkeypatch.setattr(cli, "train", explode)
    assert run_cli("train", config_path) == 4


def sample_to(tmp_path, run_dir, inst_path, out_name, n=4, seed=9, extra=()):
    out = tmp_path / out_name
    code = run_cli(
        "sample", "--checkpoint", run_dir / "checkpoint.json", "--instances", inst_path,
        "-n", n, "--seed", seed, "--out", out, *extra,
    )
    return code, out


def test_sample_outputs_and_determinism(tmp_path):
    config_path, inst_path, run_dir = write_toy_setup(tmp_path, iterations=200)
    run_cli("train", config_path)
    code, out1 = sample_to(tmp_path, run_dir, inst_path, "s1.jsonl")
    assert code == 0
    code, out2 = sample_to(tmp_path, run_dir, inst_path, "s2.jsonl")
    assert out1.read_bytes() == out2.read_bytes()
    recs = [json.loads(l) for l in out1.read_text().splitlines()]
    assert len(recs) == 4
    assert all("reward" in r and "solution_key" in r for r in recs)


def test_sample_argmax_is_seed_free_greedy_decode(tmp_path):
    import numpy as np

    from flowseek.cli import _envs_from_checkpoint
    from flowseek.policy import action_logits, load_checkpoint

    config_path, inst_path, run_dir = write_toy_setup(tmp_path, iterations=200)
    write_instances(inst_path, toydag_instances(3, 1))  # branch points where argmax is not last
    assert run_cli("train", config_path) == 0
    outs = []
    for seed in (1, 2):
        code, out = sample_to(tmp_path, run_dir, inst_path, f"g{seed}.jsonl", seed=seed,
                              extra=("--argmax",))
        assert code == 0
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    params, _, extra = load_checkpoint(run_dir / "checkpoint.json")
    envs = _envs_from_checkpoint(extra, read_instances(inst_path))
    recs = [json.loads(l) for l in outs[0].read_text().splitlines()]
    assert len(recs) == 12
    for rec in recs:
        env = envs[rec["instance_id"]]
        state = env.s0
        for action in rec["actions"]:
            dist = action_logits(params, state, env)
            assert action == dist.action_ids[int(np.argmax(dist.logits))]
            state = env.apply(state, action)
        assert env.is_terminal(state)


def test_sample_argmax_decodes_once_per_instance(tmp_path, monkeypatch):
    from flowseek import exploration
    from flowseek.cli import _envs_from_checkpoint
    from flowseek.policy import load_checkpoint
    from flowseek.rngutil import substream

    config_path, inst_path, run_dir = write_toy_setup(tmp_path, iterations=50)
    write_instances(inst_path, toydag_instances(3, 1))
    assert run_cli("train", config_path) == 0
    decode = exploration.sample_trajectory_mixed
    calls = []

    def counting(params, env, *args, **kwargs):
        calls.append(env.instance.instance_id)
        return decode(params, env, *args, **kwargs)

    monkeypatch.setattr(exploration, "sample_trajectory_mixed", counting)
    code, out = sample_to(tmp_path, run_dir, inst_path, "g.jsonl", n=5, extra=("--argmax",))
    assert code == 0
    instances = read_instances(inst_path)
    assert calls == [inst.instance_id for inst in instances]
    # the records are those of a separate greedy decode for every sample index
    params, _, extra = load_checkpoint(run_dir / "checkpoint.json")
    envs = _envs_from_checkpoint(extra, instances)
    expected = []
    for inst in instances:
        env = envs[inst.instance_id]
        for k in range(5):
            traj = decode(params, env, eps=0.0, beta=0.0,
                          rng=substream(9, "sample", inst.instance_id, k))
            success = env.is_success(traj)
            expected.append({
                "instance_id": inst.instance_id,
                "sample_index": k,
                "actions": traj.actions,
                "reward": traj.reward,
                "success": bool(success),
                "solution_key": env.solution_key(traj) if success else None,
            })
    assert out.read_text() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in expected)


def test_sample_beta_zero_decodes_once_per_instance_as_argmax_does(tmp_path, monkeypatch):
    from flowseek import exploration

    config_path, inst_path, run_dir = write_toy_setup(tmp_path, iterations=50)
    write_instances(inst_path, toydag_instances(3, 1))
    assert run_cli("train", config_path) == 0
    decode = exploration.sample_trajectory_mixed
    calls = []

    def counting(params, env, *args, **kwargs):
        calls.append(env.instance.instance_id)
        return decode(params, env, *args, **kwargs)

    monkeypatch.setattr(exploration, "sample_trajectory_mixed", counting)
    code, greedy = sample_to(tmp_path, run_dir, inst_path, "b0.jsonl", n=3,
                             extra=("--beta", "0"))
    assert code == 0
    assert calls == [inst.instance_id for inst in read_instances(inst_path)]
    code, argmax = sample_to(tmp_path, run_dir, inst_path, "am.jsonl", n=3,
                             extra=("--argmax",))
    assert code == 0
    assert greedy.read_bytes() == argmax.read_bytes()


def test_sample_runs_each_forward_pass_once_per_instance(tmp_path, monkeypatch):
    # the draws of one instance share the checkpoint's params snapshot, and so
    # its memo: each decision point's forward pass runs once per instance, and
    # an instance's memo goes with its env once its draws are written
    from flowseek import policy

    config_path, inst_path, run_dir = write_toy_setup(tmp_path, iterations=50)
    write_instances(inst_path, toydag_instances(3, 1))
    assert run_cli("train", config_path) == 0
    forward = policy.action_logits
    calls, memos_held = [], []

    def counting(params, state, env):
        calls.append((env.instance.instance_id, env.decision_key(state)))
        memos_held.append(len(params.memos))
        return forward(params, state, env)

    monkeypatch.setattr(policy, "action_logits", counting)
    code, out = sample_to(tmp_path, run_dir, inst_path, "s.jsonl", n=8)
    assert code == 0
    assert len(calls) == len(set(calls))
    steps = sum(len(json.loads(line)["actions"]) for line in out.read_text().splitlines())
    assert len(calls) < steps
    assert len({instance_id for instance_id, _ in calls}) == 3
    assert max(memos_held) == 1


def test_sample_n_below_one_is_usage_error(tmp_path):
    config_path, inst_path, run_dir = write_toy_setup(tmp_path, iterations=20)
    run_cli("train", config_path)
    for n in (0, -2):
        with pytest.raises(SystemExit) as err:
            sample_to(tmp_path, run_dir, inst_path, "s0.jsonl", n=n)
        assert err.value.code == 2
        assert not (tmp_path / "s0.jsonl").exists()


@pytest.mark.parametrize("beta", ["-1", "nan", "-inf"])
def test_sample_beta_below_zero_or_nan_is_usage_error_before_any_write(tmp_path, beta):
    config_path, inst_path, run_dir = write_toy_setup(tmp_path, iterations=20)
    run_cli("train", config_path)
    with pytest.raises(SystemExit) as err:
        sample_to(tmp_path, run_dir, inst_path, "sb.jsonl", extra=("--beta", beta))
    assert err.value.code == 2
    assert not (tmp_path / "sb.jsonl").exists()
    assert not (tmp_path / "manifest-sample.json").exists()


@pytest.mark.parametrize("beta", ["0", "inf"])
def test_sample_beta_zero_and_inf_are_valid(tmp_path, beta):
    config_path, inst_path, run_dir = write_toy_setup(tmp_path, iterations=20)
    run_cli("train", config_path)
    code, out = sample_to(tmp_path, run_dir, inst_path, "sb.jsonl", extra=("--beta", beta))
    assert code == 0 and out.read_text()
    manifest = json.loads((tmp_path / "manifest-sample.json").read_text())
    assert manifest["outputs"] == [str(out)]


def test_failed_commands_leave_no_manifest_and_keep_an_earlier_one(tmp_path):
    good = tmp_path / "good.jsonl"
    assert run_cli("gen", "--env", "toydag", "--count", 1, "--seed", 8, "--out", good) == 0
    assert run_cli("oracle", "--instances", good, "--out", tmp_path / "o1.csv") == 0
    manifests = {c: (tmp_path / f"manifest-{c}.json").read_bytes() for c in ("gen", "oracle")}

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"env_id": "toydag", "s0": "s", "goal": "g", "max_steps": 3}\n')
    assert run_cli("oracle", "--instances", bad, "--out", tmp_path / "o2.csv") == 3
    assert run_cli("gen", "--env", "blocksworld", "--count", 1, "--difficulty", "3",
                   "--out", tmp_path / "g2.jsonl") == 3
    assert not (tmp_path / "o2.csv").exists() and not (tmp_path / "g2.jsonl").exists()
    for command, text in manifests.items():
        assert (tmp_path / f"manifest-{command}.json").read_bytes() == text

    fresh = tmp_path / "fresh"
    assert run_cli("oracle", "--instances", bad, "--out", fresh / "o.csv") == 3
    assert run_cli("gen", "--env", "blocksworld", "--count", 1, "--difficulty", "3",
                   "--out", fresh / "g.jsonl") == 3
    assert not fresh.exists()


def test_outputs_in_a_new_directory_are_written_before_the_manifest(tmp_path):
    out = tmp_path / "new" / "deeper" / "toy.jsonl"
    assert run_cli("gen", "--env", "toydag", "--count", 1, "--seed", 8, "--out", out) == 0
    manifest = json.loads((out.parent / "manifest-gen.json").read_text())
    assert manifest["outputs"] == [str(out)] and out.read_text()


def test_sample_env_mismatch_is_error(tmp_path):
    config_path, inst_path, run_dir = write_toy_setup(tmp_path, iterations=20)
    run_cli("train", config_path)
    other = tmp_path / "other.jsonl"
    write_instances(other, [make_instance([4, 4, 6, 8], "g24")])
    code, _ = sample_to(tmp_path, run_dir, other, "bad.jsonl")
    assert code == 3


def test_eval_single_and_pair(tmp_path, capsys):
    config_path, inst_path, run_dir = write_toy_setup(tmp_path, iterations=200)
    run_cli("train", config_path)
    _, s1 = sample_to(tmp_path, run_dir, inst_path, "m1.jsonl", n=6, seed=1)
    _, s2 = sample_to(tmp_path, run_dir, inst_path, "m2.jsonl", n=6, seed=1)

    out = tmp_path / "metrics.csv"
    assert run_cli("eval", f"one={s1}", "--out", out) == 0
    captured = capsys.readouterr().out
    assert "creativity omitted" in captured
    body = out.read_text()
    assert body.startswith("method_id,accuracy,diversity,creativity,n_samples,n_problems")

    out2 = tmp_path / "metrics2.csv"
    assert run_cli("eval", f"a={s1}", f"b={s2}", "--out", out2) == 0
    rows = out2.read_text().strip().split("\n")[1:]
    # identical sample files leave nothing unique to either method
    for row in rows:
        assert row.split(",")[3] == "0.0"
    assert (tmp_path / "metrics2.breakdown.jsonl").exists()


def test_eval_alignment_error(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    a.write_text(json.dumps({"instance_id": "p0", "success": True, "solution_key": "k"}) + "\n")
    b.write_text(json.dumps({"instance_id": "p1", "success": True, "solution_key": "k"}) + "\n")
    assert run_cli("eval", f"a={a}", f"b={b}", "--out", tmp_path / "m.csv") == 3


SAMPLE_RECORD = '{"instance_id": "p0", "success": true, "solution_key": "k"}'


@pytest.mark.parametrize(
    "body, message",
    [
        (f'{SAMPLE_RECORD}\n{{"success": false}}\n', "line 2: not a sample record (KeyError"),
        (f'{SAMPLE_RECORD}\n["p0", true]\n', "line 2: not a sample record (TypeError"),
        (f"{SAMPLE_RECORD}\n{{not json\n", "line 2: not a sample record (JSONDecodeError"),
        (f'{SAMPLE_RECORD}\n{{"instance_id": 7}}\n', "line 2: not a sample record (TypeError"),
        ("\n", "no sample records"),
    ],
    ids=["no-instance-id", "not-an-object", "not-json", "non-string-id", "empty"],
)
def test_bad_sample_file_is_data_error(tmp_path, capsys, body, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(body)
    out = tmp_path / "m.csv"
    assert run_cli("eval", f"a={path}", "--out", out) == 3
    assert f"{path}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("damage", ["no-variant", "list", "not-json", "short-params"])
def test_bad_checkpoint_is_data_error_for_sample_and_oracle(tmp_path, capsys, damage):
    config_path, inst_path, run_dir = write_toy_setup(tmp_path, iterations=2)
    assert run_cli("train", config_path) == 0
    ckpt = run_dir / "checkpoint.json"
    doc = json.loads(ckpt.read_text())
    if damage == "no-variant":
        del doc["variant"]
    elif damage == "short-params":
        doc["params"] = doc["params"][:-1]
    text = {"list": json.dumps([doc]), "not-json": "{checkpoint"}.get(damage, json.dumps(doc))
    ckpt.write_text(text)
    capsys.readouterr()
    code, out = sample_to(tmp_path, run_dir, inst_path, "s.jsonl")
    assert code == 3 and not out.exists()
    assert f"{ckpt}: " in capsys.readouterr().err
    out = tmp_path / "o.csv"
    assert run_cli("oracle", "--instances", inst_path, "--checkpoint", ckpt, "--out", out) == 3
    assert f"{ckpt}: " in capsys.readouterr().err and not out.exists()


def _pairs(extra):
    return extra["featurizer"]["table"]["pairs"]


# a checkpoint's stored env settings, damaged: id -> (edit of `extra`, message)
BAD_EXTRA = {
    "floor-not-a-number": (lambda extra: extra.update(reward_floor="x"),
                           "field reward_floor: 'x' is not of type 'number'"),
    "unknown-scorer": (lambda extra: extra.update(scorer="bogus"),
                       "field scorer: 'bogus' is not one of"),
    "featurizer-not-an-object": (lambda extra: extra.update(featurizer="x"),
                                 "field featurizer: 'x' is not of type 'object'"),
    "pair-not-a-list": (lambda extra: _pairs(extra).insert(0, "abc"),
                        "field featurizer/table/pairs/0: 'abc' is not of type 'array'"),
    "repeated-pair": (lambda extra: _pairs(extra).append(_pairs(extra)[0]),
                      "the tabular index repeats a pair"),
    "no-env-id": (lambda extra: extra.pop("env_id"), "'env_id' is a required property"),
    "scorer-the-env-cannot-read": (lambda extra: extra.update(scorer="progress"),
                                   "the toydag reward reads no scorer"),
}


@pytest.mark.parametrize("case", sorted(BAD_EXTRA))
def test_bad_checkpoint_settings_are_data_error_for_sample_and_oracle(tmp_path, capsys, case):
    config_path, inst_path, run_dir = write_toy_setup(tmp_path, iterations=2)
    assert run_cli("train", config_path) == 0
    ckpt = run_dir / "checkpoint.json"
    doc = json.loads(ckpt.read_text())
    damage, message = BAD_EXTRA[case]
    damage(doc["extra"])
    ckpt.write_text(json.dumps(doc))
    capsys.readouterr()
    code, out = sample_to(tmp_path, run_dir, inst_path, "s.jsonl")
    assert code == 3 and not out.exists()
    err = capsys.readouterr().err
    assert f"{ckpt}: extra" in err and message in err
    out = tmp_path / "o.csv"
    assert run_cli("oracle", "--instances", inst_path, "--checkpoint", ckpt, "--out", out) == 3
    err = capsys.readouterr().err
    assert f"{ckpt}: extra" in err and message in err and not out.exists()


def test_oracle_cap_exceeded_rows(tmp_path):
    inst_path = tmp_path / "g.jsonl"
    write_instances(inst_path, [make_instance([4, 4, 6, 8], "big")])
    out = tmp_path / "o.csv"
    assert run_cli("oracle", "--instances", inst_path, "--cap", 10, "--out", out) == 3
    assert "cap-exceeded" in out.read_text()
    # every instance hit the cap, but the CSV exists, so its manifest does too
    manifest = json.loads((tmp_path / "manifest-oracle.json").read_text())
    assert manifest["outputs"] == [str(out)]


@pytest.mark.parametrize("cap", [0, -5])
def test_oracle_cap_below_one_is_usage_error(tmp_path, cap):
    inst_path = tmp_path / "g.jsonl"
    write_instances(inst_path, [make_instance([4, 4, 6, 8], "g")])
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as err:
        run_cli("oracle", "--instances", inst_path, "--cap", cap, "--out", out)
    assert err.value.code == 2
    assert not out.exists()


def test_oracle_dbl_moved_cube_start_is_data_error(tmp_path, capsys):
    inst_path = tmp_path / "cube.jsonl"
    write_instances(inst_path, [EnvInstance("cube2x2", "dbl-moved", "t=0|01234576|00000000",
                                            "solved", 11)])
    assert run_cli("oracle", "--instances", inst_path, "--out", tmp_path / "o.csv") == 3
    assert "unreachable" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"env_id": "toydag", "instance_id": "t", "s0": "s", "goal": "g"}', "max_steps"),
        ("{not json", "line 2"),
        ('["toydag", "t"]', "line 2"),
        ('{"env_id": "toydag", "instance_id": 7, "s0": "s", "goal": "g", "max_steps": 3}',
         "must be strings"),
    ],
)
def test_bad_instance_line_is_data_error(tmp_path, capsys, line, message):
    inst_path = tmp_path / "bad.jsonl"
    good = json.dumps(two_terminal_instance().to_record())
    inst_path.write_text(f"{good}\n{line}\n")
    out = tmp_path / "o.csv"
    assert run_cli("oracle", "--instances", inst_path, "--out", out) == 3
    err = capsys.readouterr().err
    assert str(inst_path) in err and "line 2" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "edges, rewards, message",
    [
        ({"s0": {"a": "b", "t": "t1"}, "b": {"c": "s0"}}, {"t1": 1.0}, "has a cycle"),
        ({"s0": {"a": "b", "t": "t1"}, "b": {"c": "t1"}}, {"t1": "high"}, "not a finite number"),
        ({"s0": {"a": "b", "t": "t1"}, "b": {"c": "t1"}}, {"t1": float("nan")},
         "not a finite number"),
    ],
)
@pytest.mark.parametrize("command", ["oracle", "train"])
def test_bad_toydag_graph_is_data_error(tmp_path, capsys, edges, rewards, message, command):
    inst_path = tmp_path / "toy.jsonl"
    goal = make_graph_goal(edges, rewards)
    write_instances(inst_path, [EnvInstance("toydag", "bad", "s0", goal, 3)])
    if command == "oracle":
        out = tmp_path / "o.csv"
        argv = ["--instances", inst_path, "--out", out]
    else:
        out = tmp_path / "run"
        argv = [tmp_path / "c.json"]
        argv[0].write_text(json.dumps({"env_id": "toydag", "instances_path": str(inst_path),
                                       "iterations": 5, "out_dir": str(out)}))
    assert run_cli(command, *argv) == 3
    err = capsys.readouterr().err
    assert message in err and "instance bad:" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "s0, message",
    [
        ("t=0|hand=-|on=blue:red,red:blue,cyan:table", "support cycle"),
        ("t=0|hand=-|on=blue:cyan,red:cyan,cyan:table", "carries 2 blocks"),
        ("t=0|on=blue:table", "malformed"),
    ],
)
def test_oracle_impossible_blocksworld_start_is_data_error(tmp_path, capsys, s0, message):
    inst_path = tmp_path / "bw.jsonl"
    write_instances(inst_path, [EnvInstance("blocksworld", "bad", s0, "on=blue:red", 4)])
    out = tmp_path / "o.csv"
    assert run_cli("oracle", "--instances", inst_path, "--out", out) == 3
    err = capsys.readouterr().err
    assert message in err and "instance bad:" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "env_id, s0, goal, message",
    [
        ("cube2x2", "t=2|10234567|00000000", "solved", "the start is at step 2, not 0"),
        ("cube2x2", "t=0|01234567|00000000", "solved", "the start is already solved"),
        ("blocksworld", "t=4|hand=-|on=blue:table,cyan:table,orange:table", "on=blue:cyan",
         "the start is at step 4, not 0"),
        ("blocksworld", "t=0|hand=-|on=blue:cyan,cyan:table", "on=blue:cyan",
         "the start already meets the goal"),
        ("blocksworld", "t=0|hand=-|on=blue:table,cyan:table", "on=blue:red",
         "the goal names red, which the start does not hold"),
    ],
)
def test_oracle_bad_start_is_data_error(tmp_path, capsys, env_id, s0, goal, message):
    inst_path = tmp_path / "bad.jsonl"
    write_instances(inst_path, [EnvInstance(env_id, "bad-start", s0, goal, 6)])
    out = tmp_path / "o.csv"
    assert run_cli("oracle", "--instances", inst_path, "--out", out) == 3
    err = capsys.readouterr().err
    assert f"instance bad-start: {message}" in err
    assert not out.exists()


def test_oracle_unreachable_cube_start_is_data_error(tmp_path, capsys):
    inst_path = tmp_path / "cube.jsonl"
    s0 = "t=0|01234567|10000000"  # twists sum to 1 mod 3
    write_instances(inst_path, [EnvInstance("cube2x2", "bad-cube", s0, "solved", 3)])
    out = tmp_path / "o.csv"
    assert run_cli("oracle", "--instances", inst_path, "--out", out) == 3
    err = capsys.readouterr().err
    assert "instance bad-cube: cube configuration 01234567|10000000 is unreachable" in err
    assert not out.exists()


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_oracle_malformed_instance_is_data_error(tmp_path, capsys, env_id):
    inst_path = tmp_path / "bad.jsonl"
    write_instances(inst_path, [EnvInstance(env_id, f"bad-{env_id}", "garbage", "garbage", 3)])
    out = tmp_path / "o.csv"
    assert run_cli("oracle", "--instances", inst_path, "--out", out) == 3
    err = capsys.readouterr().err
    assert f"instance bad-{env_id}: malformed {env_id}" in err
    assert not out.exists()


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_scorer_is_usage_error_where_no_reward_reads_it(tmp_path, capsys, env_id):
    config_path, _, run_dir = write_toy_setup(tmp_path, iterations=5)
    doc = json.loads(config_path.read_text())
    doc.update(env_id=env_id, scorer="progress")
    if env_id in ("game24", "blocksworld"):
        assert resolve_config(tmp_path, doc).scorer == "progress"
        return
    config_path.write_text(json.dumps(doc))
    assert run_cli("train", config_path) == 2
    assert "scorer" in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize("env_id", ENV_IDS)
def test_lambda_is_usage_error_where_no_reward_reads_it(tmp_path, capsys, env_id):
    config_path, _, run_dir = write_toy_setup(tmp_path, iterations=5)
    doc = json.loads(config_path.read_text())
    doc.update({"env_id": env_id, "lambda": 2.5})
    if env_id == "blocksworld":
        assert resolve_config(tmp_path, doc).intermediate_weight == 2.5
        return
    config_path.write_text(json.dumps(doc))
    assert run_cli("train", config_path) == 2
    assert "lambda" in capsys.readouterr().err
    assert not run_dir.exists()


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "flowseek.cli", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "flowseek" in proc.stdout


def test_train_mismatched_feature_dims_is_data_error(tmp_path, capsys):
    inst_path = tmp_path / "instances.jsonl"
    write_instances(inst_path, toydag_instances(3, 1))  # feature dims 9, 7, 7
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "env_id": "toydag", "instances_path": str(inst_path), "iterations": 2,
        "out_dir": str(tmp_path / "run"),
    }))
    assert run_cli("train", config_path) == 3
    assert "feature dims" in capsys.readouterr().err


def test_oracle_output_independent_of_hash_seed(tmp_path):
    inst_path = tmp_path / "instances.jsonl"
    write_instances(inst_path, [make_instance(h, f"g{i}") for i, h in
                                enumerate(([4, 4, 6, 8], [1, 2, 3, 4]))])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "env_id": "game24", "instances_path": str(inst_path), "iterations": 10,
        "learning_rate": 0.05, "seed": 1, "out_dir": str(tmp_path / "run"),
    }))
    assert run_cli("train", config_path) == 0
    src = str(Path(flowseek.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"oracle-{hash_seed}.csv"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run(
            [sys.executable, "-m", "flowseek.cli", "oracle", "--instances", str(inst_path),
             "--checkpoint", str(tmp_path / "run" / "checkpoint.json"), "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def write_repeated_id_game24(tmp_path):
    """Two different game24 hands under one id, and a checkpoint trained on the first.

    The hands are game24-1-0 and game24-1-1 of `gen --count 200 --seed 1`
    (a generator yields its first draws whatever the count), the second
    renamed to the first's id. When envs were keyed by id without a check,
    both rows were scored on the second hand's env."""
    first, second = game24_instances(2, seed=1)
    assert (first.instance_id, second.instance_id) == ("game24-1-0", "game24-1-1")
    assert first.s0 != second.s0
    dup_path, one_path = tmp_path / "dup.jsonl", tmp_path / "one.jsonl"
    write_instances(dup_path, [first, dataclasses.replace(second, instance_id=first.instance_id)])
    write_instances(one_path, [first])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "env_id": "game24", "instances_path": str(one_path), "iterations": 2,
        "seed": 1, "out_dir": str(tmp_path / "run"),
    }))
    assert run_cli("train", config_path) == 0
    return dup_path, tmp_path / "run" / "checkpoint.json"


@pytest.mark.parametrize("with_checkpoint", [False, True])
def test_oracle_repeated_instance_id_is_data_error(tmp_path, capsys, with_checkpoint):
    dup_path, checkpoint = write_repeated_id_game24(tmp_path)
    capsys.readouterr()
    extra = ("--checkpoint", checkpoint) if with_checkpoint else ()
    out = tmp_path / "o.csv"
    assert run_cli("oracle", "--instances", dup_path, *extra, "--out", out) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert "line 2: instance_id 'game24-1-0' is already on line 1" in err


def test_train_and_sample_reject_a_repeated_instance_id(tmp_path, capsys):
    dup_path, checkpoint = write_repeated_id_game24(tmp_path)
    config_path = tmp_path / "dup-config.json"
    config_path.write_text(json.dumps({
        "env_id": "game24", "instances_path": str(dup_path), "iterations": 2,
        "out_dir": str(tmp_path / "dup-run"),
    }))
    assert run_cli("train", config_path) == 3
    code, out = sample_to(tmp_path, checkpoint.parent, dup_path, "s.jsonl")
    assert code == 3 and not out.exists()
    assert capsys.readouterr().err.count("is already on line 1") == 2


def train_default_featurizer_toy(tmp_path):
    """A checkpoint of the toy fixture's 4-dim default features, with an
    instance file of one 9-dim toydag instance next to it."""
    config_path, inst_path, run_dir = write_toy_setup(tmp_path, iterations=20)
    doc = json.loads(config_path.read_text())
    del doc["policy"]["featurizer"]
    config_path.write_text(json.dumps(doc))
    assert run_cli("train", config_path) == 0
    other = tmp_path / "wider.jsonl"
    write_instances(other, toydag_instances(1, 1))
    return run_dir, other


def test_sample_checkpoint_feature_dim_mismatch_is_data_error(tmp_path, capsys):
    run_dir, wider = train_default_featurizer_toy(tmp_path)
    code, out = sample_to(tmp_path, run_dir, wider, "bad.jsonl")
    assert code == 3
    assert not out.exists()
    assert "feature_dim 4" in capsys.readouterr().err


def test_oracle_checkpoint_feature_dim_mismatch_is_data_error(tmp_path, capsys):
    run_dir, wider = train_default_featurizer_toy(tmp_path)
    out = tmp_path / "o.csv"
    assert run_cli("oracle", "--instances", wider, "--checkpoint",
                   run_dir / "checkpoint.json", "--out", out) == 3
    assert not out.exists()
    assert "feature_dim 4" in capsys.readouterr().err


def test_parent_mode_override_is_rejected(tmp_path, capsys):
    config_path, _, run_dir = write_toy_setup(tmp_path, iterations=5)
    doc = json.loads(config_path.read_text())
    for value in ("exact", "tree", None):
        doc["parent_mode_override"] = value
        config_path.write_text(json.dumps(doc))
        assert run_cli("train", config_path) == 2
        assert "parent_mode_override" in capsys.readouterr().err
    assert not (run_dir / "checkpoint.json").exists()


@pytest.mark.parametrize(
    "group, key, value, loss, field",
    [
        ("local_search", "k_mode", "foo", "logvar", "local_search/k_mode"),
        ("local_search", "k_mode", 0, "logvar", "local_search/k_mode"),
        ("schedules", "replay_prob_start", 1.7, "logvar", "schedules/replay_prob_start"),
        ("schedules", "replay_prob_end", -0.1, "logvar", "schedules/replay_prob_end"),
        ("schedules", "eps_start", 1.2, "logvar", "schedules/eps_start"),
        ("schedules", "eps_end", -0.5, "logvar", "schedules/eps_end"),
        ("schedules", "beta_end", -1.0, "logvar", "schedules/beta_end"),
        ("logz", "init", float("nan"), "logvar", "logz_init"),
        ("logz", "init", float("nan"), "tb_logz", "logz_init"),
        ("logz", "init", float("inf"), "tb_logz", "logz_init"),
        ("schedules", "replay_prob_start", float("nan"), "logvar", "replay_prob_start"),
        (None, "w", float("inf"), "logvar", "success_weight"),
        (None, "max_grad_norm", float("nan"), "logvar", "max_grad_norm"),
        (None, "max_grad_norm", -1, "logvar", "max_grad_norm"),
        (None, "max_grad_norm", 0, "logvar", "max_grad_norm"),
        (None, "checkpoint_interval", 0, "logvar", "checkpoint_interval"),
        (None, "checkpoint_interval", -5, "logvar", "checkpoint_interval"),
        (None, "learning_rate", float("nan"), "logvar", "learning_rate"),
        ("logz", "learning_rate", -1.0, "tb_logz", "logz/learning_rate"),
    ],
)
def test_bad_config_value_is_usage_error_before_any_write(tmp_path, capsys, group, key,
                                                           value, loss, field):
    config_path, _, run_dir = write_toy_setup(tmp_path, iterations=20, loss=loss)
    doc = json.loads(config_path.read_text())
    if group is None:
        doc[key] = value
    else:
        doc[group] = {key: value}
    config_path.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
    assert run_cli("train", config_path) == 2
    assert field in capsys.readouterr().err
    assert not run_dir.exists()


def test_checkpoint_with_parent_mode_override_entry_still_loads(tmp_path):
    config_path, inst_path, run_dir = write_toy_setup(tmp_path, iterations=50)
    write_instances(inst_path, toydag_instances(3, 1))
    assert run_cli("train", config_path) == 0
    ckpt = run_dir / "checkpoint.json"
    doc = json.loads(ckpt.read_text())
    assert "parent_mode_override" not in doc["extra"]
    doc["extra"]["parent_mode_override"] = None  # as older checkpoints carry it
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(doc, sort_keys=True) + "\n")
    outputs = []
    for path in (ckpt, legacy):
        tag = path.stem
        files = [tmp_path / f"{tag}-s.jsonl", tmp_path / f"{tag}-g.jsonl",
                 tmp_path / f"{tag}-o.csv"]
        common = ("--checkpoint", path, "--instances", inst_path)
        assert run_cli("sample", *common, "-n", 4, "--seed", 9, "--out", files[0]) == 0
        assert run_cli("sample", *common, "-n", 2, "--argmax", "--out", files[1]) == 0
        assert run_cli("oracle", *common, "--out", files[2]) == 0
        outputs.append([f.read_bytes() for f in files])
    assert outputs[0] == outputs[1]
    assert all(outputs[0])


# every train config key set away from its default: key -> (value, TrainConfig
# field); nested groups map their own keys the same way
NON_DEFAULT_CONFIG = {
    "iterations": (7, "iterations"),
    "batch_size": (3, "batch_size"),
    "learning_rate": (0.02, "learning_rate"),
    "optimizer": ("sgd", "optimizer"),
    "loss": ("tb_logz", "loss"),
    "seed": (11, "seed"),
    "w": (50.0, "success_weight"),
    "lambda": (2.5, "intermediate_weight"),
    "reward_floor": (1e-6, "reward_floor"),
    "offline_data_path": ("offline.jsonl", "offline_data_path"),
    "policy": {
        "variant": ("mlp", "policy_variant"),
        "hidden_dim": (8, "hidden_dim"),
        "featurizer": ("tabular", "featurizer"),
    },
    "scorer": ("progress", "scorer"),
    "buffer": {
        "capacity": (10, "buffer_capacity"),
        "priority_mode": ("log_reward", "priority_mode"),
    },
    "logz": {
        "shared": (False, "logz_shared"),
        "init": (1.5, "logz_init"),
        "learning_rate": (0.3, "logz_learning_rate"),
    },
    "lr_schedule": ("cosine", "lr_schedule"),
    "max_grad_norm": (2.0, "max_grad_norm"),
    "checkpoint_interval": (5, "checkpoint_interval"),
}
NON_DEFAULT_SCHEDULES = {"eps_start": 0.5, "eps_end": 0.1, "beta_start": 0.5, "beta_end": 3.0,
                         "replay_prob_start": 0.1, "replay_prob_end": 0.9}
NON_DEFAULT_LOCAL_SEARCH = {"enabled": False, "num_recon": 2, "k_mode": 1, "to_training": True}


def resolve_config(tmp_path, doc):
    import argparse

    from flowseek.cli import _resolve_train_config

    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    args = argparse.Namespace(config=path, seed=None, iterations=None, out_dir=None, loss=None)
    return _resolve_train_config(args)[0]


def test_every_config_key_is_honoured(tmp_path):
    from flowseek.cli import TRAIN_CONFIG_SCHEMA
    from flowseek.exploration import ExplorationSchedule
    from flowseek.trainer import LocalSearchConfig, TrainConfig

    # blocksworld reads every env setting, `scorer` and `lambda` included
    doc = {"env_id": "blocksworld", "instances_path": "i.jsonl", "out_dir": "run",
           "schedules": NON_DEFAULT_SCHEDULES, "local_search": NON_DEFAULT_LOCAL_SEARCH}
    expected = {}
    for key, spec in NON_DEFAULT_CONFIG.items():
        if isinstance(spec, dict):
            doc[key] = {sub: value for sub, (value, _) in spec.items()}
            expected.update({field: value for value, field in spec.values()})
        else:
            doc[key] = spec[0]
            expected[spec[1]] = spec[0]
    # the test covers every key the schema allows, nested ones included
    schema = TRAIN_CONFIG_SCHEMA["properties"]
    assert set(doc) == set(schema)
    for key, value in doc.items():
        if isinstance(value, dict):
            assert set(value) == set(schema[key]["properties"]), key

    config = resolve_config(tmp_path, doc)
    default = TrainConfig(env_id="blocksworld")
    for field, value in expected.items():
        assert getattr(config, field) == value, field
        assert getattr(default, field) != value, field
    assert config.schedules == ExplorationSchedule(total_iterations=7, **NON_DEFAULT_SCHEDULES)
    assert config.local_search == LocalSearchConfig(**NON_DEFAULT_LOCAL_SEARCH)
    assert default.local_search != config.local_search


def test_minimal_config_resolves_to_train_config_defaults(tmp_path, monkeypatch):
    from flowseek.trainer import TrainConfig

    monkeypatch.delenv("FLOWSEEK_SEED", raising=False)
    doc = {"env_id": "cube2x2", "instances_path": "i.jsonl"}
    assert resolve_config(tmp_path, doc) == TrainConfig(env_id="cube2x2", seed=0)
    doc["seed"] = 4
    assert resolve_config(tmp_path, doc) == TrainConfig(env_id="cube2x2", seed=4)


def test_logz_learning_rate_sets_the_log_z_step(tmp_path, monkeypatch):
    from flowseek import trainer

    config_path, _, _ = write_toy_setup(tmp_path, iterations=6, loss="tb_logz")
    doc = json.loads(config_path.read_text())
    doc["logz"] = {"learning_rate": 0.5}  # the policy's learning_rate is 0.05
    config_path.write_text(json.dumps(doc))
    steps = []
    real_loss = trainer.loss_tb_logz

    def recording(phis, log_z, grads):
        loss, grad, grad_z = real_loss(phis, log_z, grads)
        steps.append((log_z, grad_z))
        return loss, grad, grad_z

    monkeypatch.setattr(trainer, "loss_tb_logz", recording)
    assert run_cli("train", config_path) == 0
    assert len(steps) == 6
    for (z, grad_z), (z_next, _) in zip(steps, steps[1:]):
        assert grad_z != 0.0
        assert z_next == z - 0.5 * grad_z
        assert z_next != z - 0.05 * grad_z
