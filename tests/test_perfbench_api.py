"""Every flowseek name the benchmark harness uses exists.

`perfbench/` runs from its own checkout and imports the package by name, so a
rename in `src/` would first show as a failing benchmark run. This test reads
the harness's sources (it does not import them) and checks, against the
package:

- every name imported from a flowseek module;
- every attribute read off a flowseek module, such as `oracle.enumerate_dag`;
- every keyword passed to a flowseek callable;
- the functions `tracing.MODULE_FUNCTIONS` wraps and the `ENV_METHODS` it
  wraps on each environment class.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from flowseek.environments import ENV_CLASSES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def resolve(module: str, name: str):
    """`from module import name`: an attribute, or else a submodule."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")


def flowseek_bindings(tree: ast.Module) -> dict[str, object]:
    """Each name a file binds by importing from flowseek, wherever the import sits."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "flowseek":
                    module = importlib.import_module(alias.name)
                    if alias.asname is None:  # `import a.b` binds `a`
                        module = importlib.import_module(alias.name.split(".")[0])
                    bound[alias.asname or alias.name.split(".")[0]] = module
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "flowseek":
            for alias in node.names:
                bound[alias.asname or alias.name] = resolve(node.module, alias.name)
    return bound


def accepts(fn, keyword: str) -> bool:
    params = inspect.signature(fn).parameters.values()
    return any((p.name == keyword and p.kind is not p.POSITIONAL_ONLY)
               or p.kind is p.VAR_KEYWORD for p in params)


def test_the_harness_reads_flowseek():
    assert SOURCES
    names = set()
    for path in SOURCES:
        names |= set(flowseek_bindings(ast.parse(path.read_text(encoding="utf-8"))))
    # a harness that stopped importing the package would pass the checks below vacuously
    assert {"oracle", "trainer", "game24", "ENV_CLASSES"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_flowseek_name_the_harness_uses_exists(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = flowseek_bindings(tree)  # importing resolves (and so checks) each name
    missing = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and inspect.ismodule(bound.get(node.value.id))
                and not hasattr(bound[node.value.id], node.attr)):
            missing.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name):
                target = bound.get(fn.id)
            elif isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name) \
                    and inspect.ismodule(bound.get(fn.value.id)):
                target = getattr(bound[fn.value.id], fn.attr, None)
            else:
                target = None
            if callable(target):
                missing += [f"line {node.lineno}: keyword {kw.arg}= of {ast.unparse(fn)}"
                            for kw in node.keywords
                            if kw.arg is not None and not accepts(target, kw.arg)]
    assert not missing, f"{path.name} uses flowseek names that do not exist: {missing}"


def tracing_literal(name: str):
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"tracing.py assigns no {name}")


def test_every_function_the_tracer_wraps_exists():
    module_functions = tracing_literal("MODULE_FUNCTIONS")
    assert module_functions
    for layer, (module, functions) in module_functions.items():
        mod = importlib.import_module(module)
        for fn in functions:
            assert callable(getattr(mod, fn, None)), f"{layer}: {module}.{fn}"
    # the tracer counts local-search proposals from this argument
    from flowseek.exploration import local_search

    assert "num_recon" in inspect.signature(local_search).parameters
    env_methods = tracing_literal("ENV_METHODS")
    assert env_methods
    for cls in ENV_CLASSES.values():
        for method in env_methods:
            assert callable(getattr(cls, method, None)), f"{cls.__name__}.{method}"
