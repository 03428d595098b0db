"""Per-layer tracing by wrapping flowseek's public functions from outside.

Each wrapped call records a span; a layer's self time is the span's duration
minus the time of the wrapped calls it made. Spans are aggregated in memory
per name (calls, self seconds), not kept one by one.

A function bound into another module by `from ... import` is replaced in
every flowseek module that holds it, so callers see the wrapper where they
look the name up. Environment methods are replaced on each concrete class.
The package itself is not edited.
"""

from __future__ import annotations

import inspect
import sys
import time

from flowseek.environments import ENV_CLASSES

MODULE_FUNCTIONS = {
    "environments": ("flowseek.environments.cube2x2", ["distance_to_solved"]),
    "policy": (
        "flowseek.policy",
        ["action_logits", "trajectory_logpf_and_grad", "step_logprob_and_grad", "apply_update"],
    ),
    "flow_core": ("flowseek.flow_core", ["loss_logvar", "loss_tb_logz", "log_pb_uniform"]),
    "exploration": (
        "flowseek.exploration",
        ["sample_trajectory_mixed", "local_search", "buffer_insert", "buffer_sample"],
    ),
    "trainer": ("flowseek.trainer", ["train", "build_envs", "ingest_offline"]),
    "rngutil": ("flowseek.rngutil", ["substream"]),
    "oracle": ("flowseek.oracle", ["enumerate_dag", "policy_terminal_dist", "tv_distance"]),
}

ENV_METHODS = [
    "valid_actions",
    "apply",
    "is_terminal",
    "featurize",
    "feature_matrix",
    "reward",
    "parent_count",
]


def span_names() -> list[str]:
    """Every span the tracer records, as `<layer>.<function>`."""
    names = [f"environments.{m}" for m in ENV_METHODS]
    for layer, (_, functions) in MODULE_FUNCTIONS.items():
        names += [f"{layer}.{fn}" for fn in functions]
    return names


class Span:
    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Installs wrappers on `install()` (or `with tracer:`) and restores the
    originals on `remove()`. Span totals accumulate until `reset()`."""

    def __init__(self) -> None:
        self.spans = {name: Span() for name in span_names()}
        self.feature_matrix_misses = 0
        self.local_search_requested = 0
        self.local_search_accepted = 0
        self._local_search_sig: inspect.Signature | None = None
        self._stack: list[list[float]] = []
        self._undo: list = []

    def reset(self) -> None:
        for span in self.spans.values():
            span.calls = 0
            span.self_s = 0.0
        self.feature_matrix_misses = 0
        self.local_search_requested = 0
        self.local_search_accepted = 0

    def _wrap(self, name: str, fn, after=None):
        span = self.spans[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, 0]  # seconds spent in child spans, number of child spans
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                span.calls += 1
                span.self_s += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                    stack[-1][1] += 1
            if after is not None:
                after(args, kwargs, result, frame[1])
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_feature_matrix(self, args, kwargs, result, children) -> None:
        # featurize is the only traced callee, so any child span means a cache miss
        if children:
            self.feature_matrix_misses += 1

    def _after_local_search(self, args, kwargs, result, children) -> None:
        bound = self._local_search_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        self.local_search_requested += bound.arguments["num_recon"]
        self.local_search_accepted += len(result)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def install(self) -> None:
        hooks = {
            "environments.feature_matrix": self._after_feature_matrix,
            "exploration.local_search": self._after_local_search,
        }
        modules = [m for n, m in sys.modules.items() if n == "flowseek" or n.startswith("flowseek.")]
        for layer, (module_name, functions) in MODULE_FUNCTIONS.items():
            home = sys.modules[module_name]
            for fn_name in functions:
                original = getattr(home, fn_name)
                if fn_name == "local_search":
                    self._local_search_sig = inspect.signature(original)
                name = f"{layer}.{fn_name}"
                wrapped = self._wrap(name, original, hooks.get(name))
                for module in modules:
                    if getattr(module, fn_name, None) is original:
                        setattr(module, fn_name, wrapped)
                        self._undo.append((module, fn_name, original, True))
        for cls in ENV_CLASSES.values():
            for method in ENV_METHODS:
                name = f"environments.{method}"
                own = method in cls.__dict__
                original = getattr(cls, method)
                setattr(cls, method, self._wrap(name, original, hooks.get(name)))
                self._undo.append((cls, method, original, own))

    def remove(self) -> None:
        for owner, attr, original, own in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()
