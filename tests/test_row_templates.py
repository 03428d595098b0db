"""Feature rows from the process-wide row templates match test-local references.

game24, cube2x2 and blocksworld keep each decision point's rows once per
process, as an int8 template on the table entry of its multiset, dense index
or configuration, without the step and goal columns, which every call writes
again. Each case holds instances that share decision points but differ in
goal or budget. Their rows are read from cold tables, again from the warm
tables, and then from cleared tables in the other instance order. Every
reachable non-terminal state's `feature_matrix` must equal the rows of the
test-local featurizers in `test_hash_memos.py` and `test_game24_reference.py`,
which set every column per call and read none of the templates.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from flowseek.environments import (
    base,
    blocksworld,
    cube2x2,
    game24,
    generate_instances,
    make_env,
    make_envs,
)
from flowseek.environments.cube2x2 import scramble_instance
from flowseek.environments.game24 import make_instance
from flowseek.trainer import TrainConfig, build_envs

from conftest import reachable_nonterminal
from test_game24_reference import ref_featurize
from test_hash_memos import clear_tables, old_blocksworld_row, old_cube_row

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def filled(entry, name) -> bool:
    """Whether the lazy slot `name` of a table entry is set, without setting
    it: `object.__getattribute__` skips the entry's filling `__getattr__`."""
    try:
        object.__getattribute__(entry, name)
    except AttributeError:
        return False
    return True


def blocksworld_instances():
    four = generate_instances("blocksworld", 2, 22, "4")  # one start, two goals
    six = generate_instances("blocksworld", 2, 22, "6")
    longer = dataclasses.replace(four[0], instance_id=f"{four[0].instance_id}-6", max_steps=6)
    return [four[0], four[1], longer, *six]


CASES = {
    # name: (instances, the reference row of (env, state, action), the template a state reads)
    "game24": (
        [make_instance(h, f"g{i}")
         for i, h in enumerate(([1, 2, 3, 4], [1, 2, 3, 5], [4, 4, 6, 8]))],
        lambda env, state, action: ref_featurize(state, action),
        lambda env, s: env.decision_key(s),
    ),
    "cube2x2": (
        [scramble_instance(["R", "U'", "F2"], "c3", max_steps=3),
         scramble_instance(["R", "U'", "F2"], "c5", max_steps=5),
         scramble_instance(["F", "R2", "U'", "R"], "d5", max_steps=5)],
        old_cube_row,
        lambda env, s: env._ranks_of(s)[1:],
    ),
    "blocksworld": (
        blocksworld_instances(), old_blocksworld_row, lambda env, s: s.split("|", 1)[1],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stored_rows_match_featurize_whichever_instance_fills_the_store(name, monkeypatch):
    instances, reference, template_key = CASES[name]
    refs = {}
    for inst in instances:
        env = make_env(inst)
        refs[inst.instance_id] = {
            state: np.stack([reference(env, state, a) for a in env.valid_actions(state)])
            for state in reachable_nonterminal(env)
        }
    for order in (instances, instances[::-1]):
        clear_tables(monkeypatch)
        for _ in ("cold", "warm"):
            envs = make_envs(order)
            filled = set()
            shared = 0
            for inst in order:
                env = envs[inst.instance_id]
                keys = set()
                for state, ref in refs[inst.instance_id].items():
                    mat = env.feature_matrix(state)
                    assert mat.dtype == np.float64
                    assert mat.tobytes() == ref.tobytes(), (inst.instance_id, state)
                    keys.add(template_key(env, state))
                shared += len(keys & filled)
                filled |= keys
                assert not env._rows  # no rows kept per env
            assert shared, "no instance read a template that another one had filled"


@pytest.mark.parametrize("env_id", ["arc1d", "logicchain", "toydag"])
def test_per_env_rows_match_featurize(env_id):
    # these envs keep whole rows, step fractions included, in a cache of their own
    inst = dataclasses.replace(generate_instances(env_id, 1, 7)[0], max_steps=3)
    env = make_env(inst)
    states = reachable_nonterminal(env)
    for state in states + states:  # built, then read back
        ref = np.stack([make_env(inst).featurize(state, a) for a in env.valid_actions(state)])
        assert env.feature_matrix(state).tobytes() == ref.tobytes(), state
    assert len(env._rows) == len({env.decision_key(s) for s in states})


def test_goal_and_step_columns_stay_off_the_shared_stores(monkeypatch):
    clear_tables(monkeypatch)
    env = make_env(blocksworld_instances()[0])
    for state in reachable_nonterminal(env):
        env.feature_matrix(state)
    templates = [entry.rows for entry in blocksworld._TABLE.values() if filled(entry, "rows")]
    assert templates
    call_columns = [*range(4, 14), 15, 16]  # the goal columns and the step fraction
    for rows in templates:
        assert rows.dtype == np.int8 and not rows[:, call_columns].any()
    cube = make_env(CASES["cube2x2"][0][1])
    for state in reachable_nonterminal(cube)[:50]:
        cube.feature_matrix(state)
    assert cube2x2._ROWS
    for rows in cube2x2._ROWS.values():
        assert rows.dtype == np.int8 and not rows[:, cube2x2._STEP_COLUMN].any()


def test_envs_built_together_share_one_store_and_no_other(monkeypatch):
    # game24 rows live on the process-wide decode table, so every env reads
    # one template per multiset, whether it was built with the others or not
    clear_tables(monkeypatch)
    game = [make_instance([4, 4, 6, 8], "a"), make_instance([1, 2, 3, 4], "b")]
    arc = generate_instances("arc1d", 2, 7)
    envs = make_envs([*game, *arc])
    single = make_env(game[0])
    together = envs["a"].feature_matrix(single.s0)
    entry = game24._TABLE[single.s0.split("|left=")[1]]
    template = entry.rows
    assert template.dtype == np.int8
    assert single.feature_matrix(single.s0).tobytes() == together.tobytes()
    assert entry.rows is template
    assert not envs["a"]._rows and not single._rows
    # arc1d rows read the instance, so each env keeps its own
    caches = []
    for inst in arc:
        env = envs[inst.instance_id]
        env.feature_matrix(env.s0)
        caches.append(env._rows)
    assert caches[0] and caches[1] and caches[0] is not caches[1]


def load_tracer():
    """A `Tracer` of the benchmark harness, which wraps the env methods it counts."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for module_name, _ in module.MODULE_FUNCTIONS.values():
        importlib.import_module(module_name)  # the tracer wraps only loaded modules
    return module.Tracer()


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_build_makes_the_same_traced_calls(name, monkeypatch):
    # the tables outlive the envs: the first set fills the templates and the
    # second reads them. Filling calls no traced method, so both sets make
    # the same calls, and neither calls `featurize`
    instances = CASES[name][0]
    clear_tables(monkeypatch)
    counts = []
    with load_tracer() as tracer:
        for _ in range(2):
            tracer.reset()
            envs = build_envs(TrainConfig(env_id=instances[0].env_id), instances)
            for inst in instances:
                env = envs[inst.instance_id]
                for state in reachable_nonterminal(env):
                    env.feature_matrix(state)
            counts.append({span_name: span.calls for span_name, span in tracer.spans.items()})
    assert counts[0] == counts[1]
    assert counts[0]["environments.featurize"] == 0
    assert counts[0]["environments.feature_matrix"] > 0


def test_feature_matrix_is_a_fresh_array():
    for inst in (make_instance([4, 4, 6, 8], "fresh"), CASES["cube2x2"][0][0],
                 blocksworld_instances()[0], generate_instances("arc1d", 1, 7)[0]):
        env = make_env(inst)
        first = env.feature_matrix(env.s0)
        expect = first.copy()
        first[:] = -1.0  # a caller may change its matrix
        assert env.feature_matrix(env.s0).tobytes() == expect.tobytes()


def test_row_store_evicts_the_oldest_template(monkeypatch):
    # an env's own row cache keeps FEATURE_CACHE_STATES decision points,
    # first in, first out; a decision point met again is read, not stored again
    monkeypatch.setattr(base, "FEATURE_CACHE_STATES", 5)
    inst = dataclasses.replace(generate_instances("arc1d", 1, 7)[0], max_steps=3)
    env = make_env(inst)
    states = reachable_nonterminal(env)[:12]
    assert len(set(states)) > 5
    expect = {}
    for state in states + states[:3]:
        mat = env.feature_matrix(state)
        ref = np.stack([env.featurize(state, a) for a in env.valid_actions(state)])
        assert mat.tobytes() == ref.tobytes(), state
        if state not in expect:
            if len(expect) == 5:
                del expect[next(iter(expect))]
            expect[state] = None
    assert list(env._rows) == list(expect)
