"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import dataclasses
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from flowseek.cli import main
from flowseek.environments import generate_instances, make_env, replay_trajectory
from flowseek.environments.game24 import parse_values, solve_game24
from flowseek.environments.cube2x2 import (
    INVERSE,
    MOVES,
    SOLVED,
    apply_move,
    distance_to_solved,
)
from flowseek.exploration import (
    ReplayBuffer,
    buffer_insert,
    buffer_sample,
    local_search,
    sample_trajectory_mixed,
)
from flowseek.flow_core import loss_logvar, loss_tb_logz, phi
from flowseek.metrics import EvalRun, accuracy, creativity, diversity
from flowseek.oracle import enumerate_dag, policy_terminal_dist, tv_distance, write_offline_game24
from flowseek.policy import PolicyParams, init_params, trajectory_logpf_and_grad
from flowseek.rngutil import substream
from flowseek.trainer import TrainConfig, build_envs, train

from conftest import two_terminal_instance


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def converge_toy(loss_kind):
    inst = two_terminal_instance()
    config = TrainConfig(
        env_id="toydag", iterations=2000, batch_size=4, learning_rate=0.05,
        loss=loss_kind, featurizer="tabular", policy_variant="linear", seed=7,
    )
    params, _ = train(config, [inst])
    env = build_envs(config, [inst])[inst.instance_id]
    target = enumerate_dag(inst, env).target_terminal_dist
    achieved = policy_terminal_dist(params, inst, env)
    return tv_distance(achieved, target), target


def test_criterion_1_reward_proportional_sampling():
    with criterion(1, "toy-DAG training reaches TV < 0.05 with both losses in < 60 s"):
        t0 = time.perf_counter()
        tv_logvar, target = converge_toy("logvar")
        tv_tb, _ = converge_toy("tb_logz")
        elapsed = time.perf_counter() - t0
        assert target == pytest.approx({"t_low": 0.25, "t_high": 0.75})
        assert tv_logvar < 0.05, f"logvar TV {tv_logvar}"
        assert tv_tb < 0.05, f"tb_logz TV {tv_tb}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_2_gradient_correctness():
    from flowseek.environments.toydag import generate_instances as gen_toy

    with criterion(2, "analytic gradients match central differences (rel err < 1e-4)"):
        t0 = time.perf_counter()
        h = 1e-5
        checked = 0
        for batch_idx in range(20):
            variant = "linear" if batch_idx % 2 == 0 else "mlp"
            hidden = 3
            inst = gen_toy(1, seed=500 + batch_idx)[0]
            env = make_env(inst)
            base = init_params(variant, env.feature_dim, hidden, seed=batch_idx)
            vec = base.vector + substream(batch_idx, "acc2").normal(0, 0.3, base.vector.shape)
            params = PolicyParams(variant, env.feature_dim, hidden, vec)
            trajs = [
                sample_trajectory_mixed(params, env, 1.0, 1.0, substream(batch_idx, "r", k))
                for k in range(4)
            ]

            def evaluate(v, kind):
                p = PolicyParams(variant, env.feature_dim, hidden, v)
                phis, grads = [], []
                for t in trajs:
                    terms, g = trajectory_logpf_and_grad(p, t, env)
                    phis.append(phi(t, env, sum(terms)))
                    grads.append(g)
                if kind == "logvar":
                    return loss_logvar(phis, grads)
                return loss_tb_logz(phis, 0.3, grads)[:2]

            for kind in ("logvar", "tb_logz"):
                loss, grad = evaluate(vec, kind)
                fd = np.zeros_like(vec)
                for j in range(len(vec)):
                    vp, vm = vec.copy(), vec.copy()
                    vp[j] += h
                    vm[j] -= h
                    fd[j] = (evaluate(vp, kind)[0] - evaluate(vm, kind)[0]) / (2 * h)
                rel = np.linalg.norm(grad - fd) / max(
                    np.linalg.norm(grad), np.linalg.norm(fd), 1e-12
                )
                assert rel < 1e-4, f"batch {batch_idx} {variant} {kind}: rel err {rel:.2e}"
                checked += 1
        elapsed = time.perf_counter() - t0
        assert checked == 40
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_3_metric_formulas():
    with criterion(3, "diversity and creativity formulas are exact"):
        run = EvalRun("m", 20)
        for i, c in enumerate([2, 0, 3]):
            run.add(f"p{i}", None)
            for k in range(c):
                run.add(f"p{i}", f"sol{k}")
        assert diversity(run) == 2.5

        one_each = EvalRun("m", 20)
        for i in range(5):
            one_each.add(f"p{i}", f"key{i}")
        assert diversity(one_each) == 1.0

        a = EvalRun("a", 20)
        a.add("p0", "x")
        a.add("p0", "y")
        b = EvalRun("b", 20)
        b.add("p0", "y")
        c = EvalRun("c", 20)
        c.add("p0", None)
        runs = [a, b, c]
        assert creativity(runs, "a") == 0.5
        assert creativity(runs, "b") == 0.0
        assert creativity(runs, "c") == 0.0


def _local_search_fixture_instances():
    return {
        "game24": generate_instances("game24", 4, seed=61, difficulty="1-10"),
        "cube2x2": generate_instances("cube2x2", 4, seed=61, difficulty="2"),
        "blocksworld": generate_instances("blocksworld", 4, seed=61, difficulty="4"),
        "arc1d": generate_instances("arc1d", 4, seed=61),
        "logicchain": generate_instances("logicchain", 4, seed=61, difficulty="3"),
    }


def test_criterion_4_local_search_contract():
    with criterion(4, "1000 local-search calls: strict improvement, legal replays"):
        by_env = _local_search_fixture_instances()
        violations = 0
        returned = 0
        calls = 0
        for env_id, instances in by_env.items():
            envs = []
            for inst in instances:
                if env_id == "cube2x2":
                    inst = dataclasses.replace(inst, max_steps=4)  # keep BFS shallow
                envs.append(make_env(inst))
            params = init_params("linear", envs[0].feature_dim)
            for call in range(200):
                env = envs[call % len(envs)]
                rng = substream(call, "acc4", env_id)
                rollouts = [
                    sample_trajectory_mixed(params, env, 1.0, 1.0, rng) for _ in range(4)
                ]
                best = max(rollouts, key=lambda t: t.reward)
                found = local_search(best, env, num_recon=4, k_mode="uniform", rng=rng)
                calls += 1
                for cand in found:
                    returned += 1
                    if not cand.reward > best.reward:
                        violations += 1
                    replayed = replay_trajectory(env, cand.actions)
                    if replayed.states != cand.states or not replayed.is_complete:
                        violations += 1
                    if abs(replayed.reward - cand.reward) > 1e-9:
                        violations += 1
        assert calls == 1000
        assert violations == 0
        assert returned > 50, f"only {returned} candidates returned; fixture too easy"


def test_criterion_5_replay_proportionality():
    from scipy import stats

    with criterion(5, "buffer with priorities {3,1} samples 0.75/0.25 (chi-square 0.01)"):
        from flowseek.flow_core import Trajectory

        buf = ReplayBuffer(capacity=4)
        hi = Trajectory("i", ["a", "b"], ["hi"], reward=3.0, is_complete=True)
        lo = Trajectory("i", ["a", "b"], ["lo"], reward=1.0, is_complete=True)
        buffer_insert(buf, hi)
        buffer_insert(buf, lo)
        assert buf.pools["i"][1] == [3.0, 1.0]
        n = 10_000
        counts = {"hi": 0, "lo": 0}
        for traj in buffer_sample(buf, n, substream(17, "acc5"), instance_id="i"):
            counts[traj.actions[0]] += 1
        _, p_value = stats.chisquare(
            [counts["hi"], counts["lo"]], [0.75 * n, 0.25 * n]
        )
        assert p_value > 0.01, f"p={p_value}, counts={counts}"


def test_criterion_6_cube_correctness():
    with criterion(6, "cube inverse moves, distances, scramble bounds in < 60 s"):
        t0 = time.perf_counter()
        rng = substream(23, "acc6")
        for _ in range(100):
            config = SOLVED
            for _ in range(int(rng.integers(1, 12))):
                config = apply_move(config, MOVES[int(rng.integers(0, 9))])
            for move in MOVES:
                assert apply_move(apply_move(config, move), INVERSE[move]) == config
        assert distance_to_solved(SOLVED) == 0
        for move in MOVES:
            assert distance_to_solved(apply_move(SOLVED, move)) == 1
        for _ in range(100):
            k = int(rng.integers(1, 5))
            config = SOLVED
            for _ in range(k):
                config = apply_move(config, MOVES[int(rng.integers(0, 9))])
            assert distance_to_solved(config) <= 4
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_7_solver_environment_agreement():
    with criterion(7, "solver keys replay to exact 24 on 50 generated instances"):
        instances = generate_instances("game24", 50, seed=71)
        for inst in instances:
            env = make_env(inst)
            values = parse_values(inst.s0.split("|left=")[1])
            keys = solve_game24(values)
            assert keys, f"{inst.instance_id} generated unsolvable"
            for key in keys:
                traj = replay_trajectory(env, key.split(";"))
                assert env.is_success(traj)
                assert parse_values(traj.states[-1].split("|left=")[1]) == (
                    parse_values("24")
                )
        paper_key = "4 + 8 = 12;6 - 4 = 2;2 * 12 = 24"
        assert paper_key in solve_game24([4, 4, 6, 8])


def test_criterion_8_end_to_end_divergence(tmp_path):
    with criterion(8, "trained Game24 sampler beats argmax diversity and uniform accuracy"):
        t0 = time.perf_counter()
        train_insts = generate_instances("game24", 20, seed=101, difficulty="1-10")
        train_sets = {t.s0 for t in train_insts}
        held = [
            i
            for i in generate_instances("game24", 40, seed=202, difficulty="1-10")
            if i.gold_solutions and len(i.gold_solutions) >= 3 and i.s0 not in train_sets
        ][:8]
        assert len(held) >= 5
        for inst in held:  # verified multi-solution by the brute-force solver
            assert len(solve_game24(parse_values(inst.s0.split("|left=")[1]))) >= 3

        offline = tmp_path / "offline.jsonl"
        write_offline_game24(offline, train_insts)
        config = TrainConfig(
            env_id="game24", iterations=2000, batch_size=4, learning_rate=2e-3,
            loss="logvar", policy_variant="mlp", hidden_dim=32,
            offline_data_path=str(offline), seed=5,
        )
        params, _ = train(config, train_insts)

        def collect(tag, decode, n=20):
            run = EvalRun(method_id=tag, n_samples=n)
            for inst in held:
                env = make_env(inst)
                for k in range(n):
                    traj = decode(env, inst, k)
                    ok = env.is_success(traj)
                    run.add(inst.instance_id, env.solution_key(traj) if ok else None)
            return run

        trained = collect(
            "trained",
            lambda env, inst, k: sample_trajectory_mixed(
                params, env, 0.0, 1.0, substream(9, "acc8", inst.instance_id, k)
            ),
        )
        argmax = collect(
            "argmax",
            lambda env, inst, k: sample_trajectory_mixed(
                params, env, 0.0, 0.0, substream(9, "acc8a", inst.instance_id, k)
            ),
        )
        uniform_params = {}

        def uniform_decode(env, inst, k):
            if inst.instance_id not in uniform_params:
                uniform_params[inst.instance_id] = init_params("linear", env.feature_dim)
            return sample_trajectory_mixed(
                uniform_params[inst.instance_id], env, 0.0, 1.0,
                substream(10, "acc8u", inst.instance_id, k),
            )

        uniform = collect("uniform", uniform_decode)

        div_trained = diversity(trained)
        div_argmax = diversity(argmax)
        assert div_trained is not None and div_trained > 1.0, f"diversity {div_trained}"
        if div_argmax is not None:
            assert div_trained > div_argmax
        assert accuracy(trained) >= accuracy(uniform)
        elapsed = time.perf_counter() - t0
        assert elapsed < 900.0, f"took {elapsed:.1f}s"


def test_criterion_9_command_determinism(tmp_path):
    with criterion(9, "repeated commands produce byte-identical primary outputs"):
        inst_path = tmp_path / "instances.jsonl"
        outs = []
        for rep in ("a", "b"):
            out = tmp_path / f"gen-{rep}.jsonl"
            assert main(["gen", "--env", "game24", "--count", "3", "--seed", "3",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        inst_path.write_bytes(outs[0])

        config = {
            "env_id": "game24",
            "instances_path": str(inst_path),
            "iterations": 30,
            "batch_size": 4,
            "seed": 4,
            "out_dir": str(tmp_path / "run"),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        artifacts = ("checkpoint.json", "report.csv", "trajectories.jsonl")
        snapshots = []
        for rep in range(2):
            assert main(["train", str(config_path)]) == 0
            snapshots.append({a: (tmp_path / "run" / a).read_bytes() for a in artifacts})
        assert snapshots[0] == snapshots[1]

        samples = []
        for rep in ("a", "b"):
            out = tmp_path / f"sample-{rep}.jsonl"
            assert main(["sample", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                         "--instances", str(inst_path), "-n", "5", "--seed", "6",
                         "--out", str(out)]) == 0
            samples.append(out.read_bytes())
        assert samples[0] == samples[1]

        evals = []
        for rep in ("a", "b"):
            out = tmp_path / f"eval-{rep}.csv"
            assert main(["eval", f"m={tmp_path / 'sample-a.jsonl'}", "--out", str(out)]) == 0
            evals.append(out.read_bytes())
        assert evals[0] == evals[1]

        oracles = []
        for rep in ("a", "b"):
            out = tmp_path / f"oracle-{rep}.csv"
            assert main(["oracle", "--instances", str(inst_path), "--out", str(out)]) == 0
            oracles.append(out.read_bytes())
        assert oracles[0] == oracles[1]


def test_criterion_10_phi_shift_invariance():
    with criterion(10, "scaling rewards by 10 shifts phi by log 10, loss unchanged"):
        from flowseek.flow_core import Trajectory

        class TreeEnv:
            parent_mode = "tree"

        trajs = [
            (Trajectory("i", ["a", "b"], ["x"], reward=2.0, is_complete=True), math.log(0.4)),
            (Trajectory("i", ["a", "b"], ["y"], reward=7.0, is_complete=True), math.log(0.6)),
            (Trajectory("i", ["a", "b"], ["z"], reward=0.5, is_complete=True), math.log(0.2)),
            (Trajectory("i", ["a", "b"], ["w"], reward=1.0, is_complete=True), math.log(0.9)),
        ]
        base = [phi(t, TreeEnv(), lp) for t, lp in trajs]
        base_loss, _ = loss_logvar(base)
        scaled = [phi(dataclasses.replace(t, reward=t.reward * 10.0), TreeEnv(), lp)
                  for t, lp in trajs]
        scaled_loss, _ = loss_logvar(scaled)
        for p0, p1 in zip(base, scaled):
            assert p1 - p0 == pytest.approx(math.log(10.0), abs=1e-9)
        assert scaled_loss == pytest.approx(base_loss, abs=1e-9)
