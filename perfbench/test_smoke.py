"""Smoke test of the benchmark harness at tiny sizes.

Run with `python -m pytest perfbench`. The repository's own test run only
collects `tests/`, so the full-size benchmark never runs there.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    env = json.loads(lines[-2])["perfbench"]
    assert env["seed"] == 3 and env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace == "0":
        assert all(v > 0 for v in values.values())
    else:
        assert values["oracle.cap_exceeded"] == 0
        assert values["environments.feature_matrix.calls"] > 0
        if workload.startswith("game24"):
            assert values["environments.parent_count.calls"] == 0
        if not workload.startswith("cube"):
            assert values["environments.distance_to_solved.calls"] == 0


def test_same_seed_gives_same_counts():
    args = ("--workload", WORKLOADS[0], "--seed", "5", "--seconds", "1", "--trace", "1", "--smoke")
    first, second = run_bench(*args), run_bench(*args)
    assert first.returncode == 0 and second.returncode == 0

    def counts(done):
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items() if k.endswith(".calls")}

    assert counts(first) == counts(second)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text(encoding="utf-8"))
    done = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", root=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
