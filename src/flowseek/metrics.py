"""Evaluation metrics: accuracy, diversity, and cross-method creativity.

Diversity averages the number of distinct successful solution keys over the
problems that have at least one success; it is undefined (None, never 0) when
nothing was solved. Creativity credits a method for the fraction of the
cross-method solution union that only it found; solutions from different
problems are kept distinct by pairing each key with its instance id.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import AlignmentError, FlowseekError


@dataclass
class EvalRun:
    """Successful solution keys per problem for one method."""

    method_id: str
    n_samples: int
    problems: dict[str, set[str]] = field(default_factory=dict)  # instance_id -> keys

    def add(self, instance_id: str, key: str | None) -> None:
        self.problems.setdefault(instance_id, set())
        if key is not None:
            self.problems[instance_id].add(key)


@dataclass
class MetricReport:
    method_id: str
    accuracy: float
    diversity: float | None
    creativity: float | None
    n_samples: int
    n_problems: int


def accuracy(run: EvalRun) -> float:
    if not run.problems:
        raise ValueError("empty evaluation run")
    solved = sum(1 for keys in run.problems.values() if keys)
    return solved / len(run.problems)


def diversity(run: EvalRun) -> float | None:
    counts = [len(keys) for keys in run.problems.values() if keys]
    if not counts:
        return None
    return sum(counts) / len(counts)


def creativity(runs: list[EvalRun], target_method: str) -> float:
    if len(runs) < 2:
        raise AlignmentError("creativity needs at least two methods")
    problem_sets = [set(r.problems) for r in runs]
    if any(s != problem_sets[0] for s in problem_sets[1:]):
        raise AlignmentError("methods were evaluated on different problem sets")
    by_method = {r.method_id: r for r in runs}
    if target_method not in by_method:
        raise AlignmentError(f"unknown method {target_method!r}")

    union: set[tuple[str, str]] = set()
    for run in runs:
        for instance_id, keys in run.problems.items():
            union.update((instance_id, k) for k in keys)
    if not union:
        return 0.0

    target = by_method[target_method]
    unique = 0
    for instance_id, keys in target.problems.items():
        others = set()
        for run in runs:
            if run.method_id != target_method:
                others.update(run.problems.get(instance_id, set()))
        unique += sum(1 for k in keys if k not in others)
    return unique / len(union)


def load_run(path, method_id: str) -> EvalRun:
    """Build an EvalRun from a sample JSONL file written by `flowseek sample`; a
    line that is no sample record, or a file without one, raises FlowseekError."""
    per_problem_counts: dict[str, int] = {}
    run = EvalRun(method_id=method_id, n_samples=0)
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                iid = rec["instance_id"]
                if not isinstance(iid, str):
                    raise TypeError("instance_id must be a string")
                run.add(iid, rec.get("solution_key") if rec.get("success") else None)
            except (KeyError, TypeError, ValueError) as exc:
                raise FlowseekError(
                    f"{path}: line {lineno}: not a sample record ({exc!r})"
                ) from None
            per_problem_counts[iid] = per_problem_counts.get(iid, 0) + 1
    if not run.problems:
        raise FlowseekError(f"{path}: no sample records")
    counts = sorted(set(per_problem_counts.values()))
    if len(counts) != 1:
        raise AlignmentError(
            f"{path}: sample counts differ across problems ({counts[0]}..{counts[-1]})"
        )
    run.n_samples = counts[0]
    return run


def evaluate(runs: list[EvalRun]) -> list[MetricReport]:
    """Accuracy and diversity per run; creativity only when >= 2 runs align."""
    reports = []
    for run in runs:
        crea = creativity(runs, run.method_id) if len(runs) >= 2 else None
        reports.append(
            MetricReport(
                method_id=run.method_id,
                accuracy=accuracy(run),
                diversity=diversity(run),
                creativity=crea,
                n_samples=run.n_samples,
                n_problems=len(run.problems),
            )
        )
    return reports


def write_metrics_csv(path, reports: list[MetricReport]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("method_id,accuracy,diversity,creativity,n_samples,n_problems\n")
        for r in reports:
            div = "" if r.diversity is None else repr(r.diversity)
            crea = "" if r.creativity is None else repr(r.creativity)
            f.write(f"{r.method_id},{r.accuracy!r},{div},{crea},{r.n_samples},{r.n_problems}\n")


def write_breakdown_jsonl(path, runs: list[EvalRun]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for run in runs:
            for instance_id in sorted(run.problems):
                rec = {
                    "method_id": run.method_id,
                    "instance_id": instance_id,
                    "n_samples": run.n_samples,
                    "n_distinct_success": len(run.problems[instance_id]),
                    "keys": sorted(run.problems[instance_id]),
                }
                f.write(json.dumps(rec, sort_keys=True))
                f.write("\n")
