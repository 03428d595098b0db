"""Every committed `BENCH_*.json` describes the benchmark `BENCHMARK.json` declares."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_files_name_only_declared_workloads_metrics_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in spec["workloads"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["seeds"] and doc["nproc"] >= 1 and doc["versions"], path.name
        assert doc["workloads"] and set(doc["workloads"]) <= workloads, path.name
        for workload, metrics in doc["workloads"].items():
            for name, figure in metrics.items():
                assert name in units and figure["unit"] == units[name], (path.name, name)
                assert figure["q1"] <= figure["median"] <= figure["q3"], (path.name, name)
