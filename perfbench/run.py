#!/usr/bin/env python3
"""flowseek benchmark: train, sample and oracle throughput on one workload.

Run from a checkout of the repository:

    python3 perfbench/run.py --workload game24-mlp-offline --seed 1 --seconds 30 --trace 0

With `--trace 0` the run measures the end-to-end metrics with tracing off.
With `--trace 1` it wraps flowseek's public functions (see `tracing.py`) and
reports per-layer calls and self time for one repetition of each phase, plus
the tracing overhead. `--smoke` shrinks the workload so every code path runs
in seconds. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records the
interpreter, numpy, CPU count, BLAS thread settings and the seed.

Everything runs in this one single-threaded process (BLAS pinned to one
thread), apart from the extra cold set-ups, which run one at a time in child
processes. Nothing waits on a queue, so no wait time is recorded.

Every time figure is given at nominal host speed: a fixed reference loop runs
just before and just after each timed unit, and the unit's seconds are scaled
by `REF_NOMINAL_S` over the loop's mean time. A shared host's CPU speed drifts
by up to 1.8x for minutes at a time, and it slows the reference loop and
flowseek alike, so the scaled figures follow the program rather than the host.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import time

# set-up is timed from here, before numpy or flowseek is imported
_T_START = time.perf_counter()

import argparse
import dataclasses
import gc
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_PROCESSES = 3  # child processes whose set-up time is taken
SETUP_TIMEOUT_S = 60

# units between two reference runs: training iterations and sampled instances
TRAIN_SEGMENT = 10
SAMPLE_GROUP = 2
# shares of a measuring run's time given to each phase
SHARES = {"train": 0.55, "sample": 0.1, "oracle": 0.35}
# seconds the reference loop takes when the host runs at full speed (a quiet
# 2-vCPU x86-64 host, Python 3 with numpy); every time figure is scaled to it
REF_NOMINAL_S = 0.011
# shares of --seconds given to each phase of the traced run; each runs at least once
TRACE_SHARES = {"train": 0.6, "sample": 0.1, "oracle": 0.3}


class Tally:
    """Operations attempted and failed: iterations, trajectories, oracle instances."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def reference_seconds() -> float:
    """Time one pass of a fixed loop of interpreter and small-array numpy work,
    the mix flowseek's hot paths run."""
    import numpy

    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    a = numpy.arange(64.0)
    for _ in range(3_000):
        a = numpy.tanh(a * 0.5) + 1.0
    return time.perf_counter() - t0


class SpeedProbe:
    """Runs the reference loop between timed units.

    `factor()`, called right after a unit, runs the loop again and returns
    nominal over actual host speed around that unit: multiply the unit's
    seconds by it (or divide its rate) to get the figure at nominal speed.
    """

    def __init__(self) -> None:
        self.last = reference_seconds()
        self.factors: list[float] = []

    def factor(self) -> float:
        before, self.last = self.last, reference_seconds()
        self.factors.append(REF_NOMINAL_S / ((before + self.last) / 2.0))
        return self.factors[-1]


def _finite_positive(x) -> bool:
    return isinstance(x, float) and math.isfinite(x) and x > 0.0


def train_once(prepared, tally: Tally, speed: SpeedProbe | None = None):
    """One warm `train()` call.

    With `speed`, the reference loop also runs every `TRAIN_SEGMENT`
    iterations, through train()'s checkpoint hook, which is called outside
    the per-iteration wallclock. `nominal_s` is then the call's time at
    nominal speed without the reference runs, and `latencies_ms` are scaled
    by their segment's factor. `seconds` is the call's wall time.
    """
    from flowseek import trainer

    config = prepared.config
    if speed is not None:
        config = dataclasses.replace(config, checkpoint_interval=TRAIN_SEGMENT)
    segments = []  # (iterations done, seconds, factor) per segment
    mark = 0.0

    def end_segment(i, params=None, opt=None) -> None:
        nonlocal mark
        seconds = time.perf_counter() - mark
        segments.append((i + 1, seconds, speed.factor()))
        mark = time.perf_counter()

    gc.collect()
    t0 = mark = time.perf_counter()
    params, report = trainer.train(config, prepared.instances,
                                   checkpoint_writer=None if speed is None else end_segment)
    seconds = time.perf_counter() - t0
    latencies_ms = [1e3 * rec["wallclock"] for rec in report.records]
    nominal_s = None
    if speed is not None:
        # the return after the last segment is left out of the figures
        if not segments or segments[-1][0] < len(report.records):
            end_segment(len(report.records) - 1)
        nominal_s = math.fsum(dt * f for _, dt, f in segments)
        done = 0
        for upto, _, f in segments:
            latencies_ms[done:upto] = [ms * f for ms in latencies_ms[done:upto]]
            done = upto
    bad_reward = {r["iteration"] for r in report.trajectory_log if not _finite_positive(r["reward"])}
    for rec in report.records:
        i = rec["iteration"]
        tally.record(
            math.isfinite(rec["mean_loss"]) and i not in bad_reward,
            f"train iteration {i}: loss {rec['mean_loss']!r} or a reward is not finite and > 0",
        )
    return {
        "params": params,
        "seconds": seconds,
        "nominal_s": nominal_s,
        "latencies_ms": latencies_ms,
        "phases": [rec["phase"] for rec in report.records],
    }


def sample_round(prepared, params, tally: Tally, instances=None,
                 speed: SpeedProbe | None = None):
    """eps=0, beta=1 rollouts, as `flowseek sample` draws them.

    With `speed`, every `SAMPLE_GROUP` instances form a unit timed at
    nominal speed; `units` holds (trajectories, nominal seconds) per unit.
    """
    from flowseek import exploration, rngutil, trainer
    from flowseek.environments import replay_trajectory
    from workloads import PROGRAM_SEED

    instances = prepared.instances if instances is None else instances
    envs = trainer.build_envs(prepared.config, instances)
    drawn, units = [], []
    for start in range(0, len(instances), SAMPLE_GROUP):
        before = len(drawn)
        t0 = time.perf_counter()
        for inst in instances[start:start + SAMPLE_GROUP]:
            env = envs[inst.instance_id]
            for k in range(prepared.workload.samples_per_instance):
                rng = rngutil.substream(PROGRAM_SEED, "sample", inst.instance_id, k)
                drawn.append((env, exploration.sample_trajectory_mixed(params, env, 0.0, 1.0, rng)))
        if speed is not None:
            units.append((len(drawn) - before, (time.perf_counter() - t0) * speed.factor()))
    successes = 0
    for env, traj in drawn:
        ok = _finite_positive(traj.reward)
        if ok and env.is_success(traj):
            successes += 1
            again = replay_trajectory(env, traj.actions)
            ok = again.is_complete and env.is_success(again) and again.reward == traj.reward
        tally.record(ok, f"sample on {traj.instance_id}: reward {traj.reward!r} or replay mismatch")
    return {"n": len(drawn), "successes": successes, "units": units}


def oracle_pass(prepared, params, tally: Tally, instances=None,
                speed: SpeedProbe | None = None):
    """Enumerate each instance and score the trained policy against the target.

    With `speed`, each instance is a unit timed at nominal speed; `units`
    holds (1, nominal seconds) per instance.
    """
    from flowseek import oracle, trainer
    from flowseek.errors import EnumerationCapError

    instances = prepared.instances if instances is None else instances
    envs = trainer.build_envs(prepared.config, instances)
    results, units = [], []
    for inst in instances:
        env = envs[inst.instance_id]
        t0 = time.perf_counter()
        try:
            summary = oracle.enumerate_dag(inst, env)
            policy_dist = oracle.policy_terminal_dist(params, inst, env)
            tv = oracle.tv_distance(policy_dist, summary.target_terminal_dist)
            # keep the figures the checks need, not the enumerated trajectories
            total = math.fsum(summary.target_terminal_dist.values())
            results.append((inst.instance_id, (summary.Z, total, tv, summary.n_trajectories)))
        except EnumerationCapError:
            results.append((inst.instance_id, None))
        if speed is not None:
            units.append((1, (time.perf_counter() - t0) * speed.factor()))
    tvs = []
    trajectories = 0
    cap_exceeded = 0
    for instance_id, figures in results:
        if figures is None:
            cap_exceeded += 1
            tally.record(False, f"oracle on {instance_id}: enumeration cap exceeded")
            continue
        z, total, tv, n_trajectories = figures
        trajectories += n_trajectories
        ok = math.isfinite(z) and z > 0.0 and abs(total - 1.0) <= 1e-9 and 0.0 <= tv <= 1.0
        tally.record(ok, f"oracle on {instance_id}: Z {z!r}, target sum {total!r}, tv {tv!r}")
        tvs.append((instance_id, tv))
    return {
        "n": len(results),
        "tvs": tvs,
        "trajectories": trajectories,
        "cap_exceeded": cap_exceeded,
        "units": units,
    }


def repeat(fn, seconds: float) -> list:
    """Call `fn` at least once, and again while another call of average
    length still ends within `seconds` of the start."""
    start = time.perf_counter()
    out = [fn()]
    while (now := time.perf_counter()) + (now - start) / len(out) <= start + seconds:
        out.append(fn())
    return out


def cold_setups(args, count: int, workdir: Path) -> list[float]:
    """Set-up time at nominal speed of `count` fresh processes, run one after another.

    This process runs the reference loop just before starting each child and
    the child runs it right after its set-up, so the two bracket the set-up.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--scratch", str(workdir)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(count):
        before = reference_seconds()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed ({done.returncode}):\n{done.stderr}")
        child = json.loads(done.stdout.strip().splitlines()[-1])
        times.append(child["setup_s"] * REF_NOMINAL_S / ((before + child["ref_s"]) / 2.0))
    return times


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(args, prepared, tally: Tally) -> tuple[dict, dict]:
    """Interleave train() calls, sample groups and oracle instances until time is up.

    Each step runs one unit of the phase furthest behind its share of the
    time so far (`SHARES`), so every phase meets the same mix of host speeds,
    unless the instances the oracle has yet to visit would take the time
    left; then the oracle runs. Units are timed at nominal host speed (see
    `SpeedProbe`), and each rate is the median over its units. Past
    `--seconds` the run goes on until the oracle has visited every instance
    once and every phase has run.
    """
    instances = prepared.instances
    trains, sample_units, oracle_units, tvs = [], [], [], {}
    # the first train() of a process runs measurably slower; it is a warm-up
    params = train_once(prepared, tally)["params"]
    speed = SpeedProbe()
    spent = dict.fromkeys(SHARES, 0.0)
    visits = dict.fromkeys(SHARES, 0)
    start = time.perf_counter()
    end = start + args.seconds
    while True:
        now = time.perf_counter()
        if now >= end:
            if len(tvs) < len(instances):
                phase = "oracle"
            elif not visits["sample"]:
                phase = "sample"
            else:
                break
        elif visits["oracle"] and (len(instances) - len(tvs)) * (
                spent["oracle"] / visits["oracle"]) >= end - now:
            phase = "oracle"
        else:
            phase = max(SHARES, key=lambda p: SHARES[p] * (now - start) - spent[p])
        if phase == "train":
            trains.append(train_once(prepared, tally, speed))
            params = trains[-1]["params"]
        elif phase == "sample":
            k = visits["sample"] * SAMPLE_GROUP
            chunk = [instances[(k + j) % len(instances)] for j in range(SAMPLE_GROUP)]
            sample_units += sample_round(prepared, params, tally, chunk, speed)["units"]
        else:
            chunk = [instances[visits["oracle"] % len(instances)]]
            visit = oracle_pass(prepared, params, tally, chunk, speed)
            oracle_units += visit["units"]
            for instance_id, tv in visit["tvs"]:
                tvs.setdefault(instance_id, tv)
        visits[phase] += 1
        spent[phase] += time.perf_counter() - now

    def rate(units: list) -> float:
        return statistics.median([n / nominal_s for n, nominal_s in units])

    iters = prepared.config.iterations
    latencies_ms = [ms for t in trains for ms in t["latencies_ms"]]
    metrics = {
        "train_iters_per_s": rate([(iters, t["nominal_s"]) for t in trains]),
        "train_iter_ms_p50": quantile(latencies_ms, 50),
        "train_iter_ms_p99": quantile(latencies_ms, 99),
        "sample_traj_per_s": rate(sample_units),
        "oracle_inst_per_s": rate(oracle_units),
        "oracle_tv": statistics.fmean(tvs.values()),
    }
    info = {
        "measuring_s": time.perf_counter() - start,
        "phase_wall_s": spent,
        "host_speed_factor_quartiles": statistics.quantiles(
            speed.factors, n=4, method="inclusive"),
        "train_iter_latency_samples": len(latencies_ms),
        "units": {"train": len(trains), "sample": len(sample_units),
                  "oracle": len(oracle_units)},
    }
    return metrics, info


def measure_traced(args, prepared, tally: Tally) -> tuple[dict, dict]:
    """Per-layer counts and self time for one unit of each phase.

    Each count is the total over a phase divided by the units it ran; every
    unit does the same work, so counts repeat exactly for a seed. Untraced and
    traced train calls alternate, so drift in CPU speed touches both sides of
    the tracing overhead alike.
    """
    from tracing import Tracer, span_names

    budget = args.seconds
    iters = prepared.config.iterations
    tracer = Tracer()
    per_unit = {name: [0.0, 0.0] for name in span_names()}  # calls, self_s
    counters = dict.fromkeys(("fm_calls", "fm_misses", "ls_requested", "ls_accepted"), 0.0)

    def collect(units: int) -> None:
        for name, span in tracer.spans.items():
            per_unit[name][0] += span.calls / units
            per_unit[name][1] += span.self_s / units
        counters["fm_calls"] += tracer.spans["environments.feature_matrix"].calls / units
        counters["fm_misses"] += tracer.feature_matrix_misses / units
        counters["ls_requested"] += tracer.local_search_requested / units
        counters["ls_accepted"] += tracer.local_search_accepted / units
        tracer.reset()

    params = train_once(prepared, tally)["params"]  # warm-up; its timing is discarded
    untraced, trains = [], []
    speed = SpeedProbe()
    end = time.perf_counter() + TRACE_SHARES["train"] * budget
    while len(trains) < 2 or time.perf_counter() < end:
        untraced.append(train_once(prepared, tally))
        untraced[-1]["factor"] = speed.factor()
        with tracer:
            trains.append(train_once(prepared, tally))
        trains[-1]["factor"] = speed.factor()
    collect(len(trains))
    with tracer:
        samples = repeat(lambda: sample_round(prepared, params, tally),
                         TRACE_SHARES["sample"] * budget)
    collect(len(samples))
    with tracer:
        oracles = repeat(lambda: oracle_pass(prepared, params, tally),
                         TRACE_SHARES["oracle"] * budget)
    collect(len(oracles))

    untraced_rate = statistics.median([iters / (t["seconds"] * t["factor"]) for t in untraced])
    traced_rate = statistics.median([iters / (t["seconds"] * t["factor"]) for t in trains])
    phases = trains[-1]["phases"]
    metrics = {}
    for name, (calls, self_s) in per_unit.items():
        metrics[f"{name}.calls"] = round(calls, 6)
        metrics[f"{name}.self_s"] = self_s
    metrics["environments.feature_matrix.hit_ratio"] = (
        1.0 - counters["fm_misses"] / counters["fm_calls"] if counters["fm_calls"] else 0.0
    )
    metrics["exploration.local_search.accept_ratio"] = (
        counters["ls_accepted"] / counters["ls_requested"] if counters["ls_requested"] else 0.0
    )
    metrics["exploration.sample_success_rate"] = samples[-1]["successes"] / samples[-1]["n"]
    metrics["trainer.exploit_share"] = phases.count("exploit") / len(phases)
    metrics["trainer.fallback_share"] = phases.count("explore_fallback") / len(phases)
    metrics["oracle.trajectories"] = oracles[-1]["trajectories"]
    metrics["oracle.cap_exceeded"] = oracles[-1]["cap_exceeded"]
    metrics["trace.train_iters_per_s_untraced"] = untraced_rate
    metrics["trace.train_iters_per_s_traced"] = traced_rate
    metrics["trace.overhead_iters_per_s"] = untraced_rate - traced_rate
    info = {"train_call_pairs": len(trains), "sample_rounds": len(samples),
            "oracle_passes": len(oracles)}
    return metrics, info


def environment_record(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    threads = None
    try:
        with open("/proc/self/status", encoding="utf-8") as f:
            for line in f:
                if line.startswith("Threads:"):
                    threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "process_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "waits": "none recorded: one thread, no queues",
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the harness test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--scratch", type=Path, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so the scratch directory and any set-up
    # child process are cleaned up when the run is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "flowseek" / "__init__.py").is_file():
        print(f"error: no flowseek sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import flowseek
    from workloads import WORKLOADS, prepare

    if Path(flowseek.__file__).resolve().parent != ROOT / "src" / "flowseek":
        print(f"error: imported flowseek from {flowseek.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()

    # set-up child processes work inside the parent's directory, so removing
    # it also clears what a child killed mid-set-up leaves behind
    scratch = args.scratch or SCRATCH
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        prepared = prepare(workload, args.seed, workdir)
        setup_s = time.perf_counter() - _T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "ref_s": reference_seconds()}))
            return 0
        tally = Tally()
        if args.trace:
            metrics, info = measure_traced(args, prepared, tally)
        else:
            # this process's own set-up has no reference run before it, so it
            # is only recorded, as measured
            children = cold_setups(args, 1 if args.smoke else SETUP_PROCESSES, workdir)
            metrics, info = measure(args, prepared, tally)
            metrics["setup_s"] = statistics.median(children)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            info["setup_samples_s"] = children
            info["setup_s_this_process_unscaled"] = setup_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if args.scratch is None:
            try:
                SCRATCH.rmdir()
            except OSError:
                pass  # another run still holds a directory there

    record = environment_record(args)
    record.update(info)
    if tally.problems:
        record["problems"] = tally.problems
    print(json.dumps({"perfbench": record}, sort_keys=True))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
