"""Decision keys: caches shared across histories must not change any result.

game24 keys its action, feature and oracle caches on the numbers left, not
the full history-bearing state. These tests hold the shared entries against
values computed from scratch, and a whole training run against one that
keys on the full state.
"""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from flowseek.environments import game24, generate_instances, make_env, make_envs
from flowseek.environments.cube2x2 import scramble_instance
from flowseek.environments.game24 import (
    Game24Env,
    enumerate_actions,
    fmt_values,
    make_instance,
    parse_values,
)
from flowseek.oracle import policy_terminal_dist, write_offline_game24
from flowseek.policy import action_logits
from flowseek.trainer import TrainConfig, build_envs, train

from conftest import random_params
from test_game24_reference import ref_featurize

HANDS = ([4, 4, 6, 8], [3, 3, 8, 8], [1, 2, 3, 4], [1, 1, 1, 1], [2, 5, 7, 10])


def reachable_nonterminal(env):
    """Every non-terminal state reachable from s0, in DFS order."""
    out, stack = [], [env.s0]
    while stack:
        state = stack.pop()
        if env.is_terminal(state):
            continue
        out.append(state)
        for action in env.valid_actions(state):
            stack.append(env.apply(state, action))
    return out


def test_shared_rows_match_fresh_featurize(monkeypatch):
    # the references come from the test-local featurizer, which reads the
    # state text alone; two envs built together read one template per key,
    # filled exactly once, from the process-wide decode table
    built = Counter()
    fill_rows = game24._fill_rows

    def counting_fill_rows(ctx):
        built["|left=" + ctx.left] += 1
        return fill_rows(ctx)

    monkeypatch.setattr(game24, "_fill_rows", counting_fill_rows)
    for hand in HANDS:
        monkeypatch.setattr(game24, "_TABLE", {})
        built.clear()
        by_key = {}
        envs = make_envs([make_instance(hand, "dk"), make_instance(hand, "dk2")])
        for env in envs.values():
            for state in reachable_nonterminal(env):
                actions = env.cached_valid_actions(state)
                assert actions == [eq for eq, _ in enumerate_actions(parse_values(
                    state.split("|left=")[1]))]
                mat = env.feature_matrix(state)
                ref = np.stack([ref_featurize(state, a) for a in actions])
                assert mat.tobytes() == ref.tobytes(), state
                by_key.setdefault(env.decision_key(state), []).append((state, mat))
        assert any(len({s for s, _ in group}) > 1 for group in by_key.values()), hand
        for key, group in by_key.items():
            assert all(m.tobytes() == group[0][1].tobytes() for _, m in group)
            assert built[key] == 1, key  # one fill per multiset, for both envs
        assert set(built) == set(by_key)


def test_feature_rows_match_pinned_digest():
    # digest of every row over two hands, as the history-parsing featurizer
    # produced them; the shared per-multiset context must not move a bit
    digest = hashlib.sha256()
    for hand in ([4, 4, 6, 8], [3, 3, 8, 8]):
        env = make_env(make_instance(hand, "pin"))
        stack = [env.s0]
        while stack:
            state = stack.pop()
            if env.is_terminal(state):
                continue
            for action, row in zip(env.valid_actions(state), env.feature_matrix(state)):
                digest.update(row.astype("<f8").tobytes())
                stack.append(env.apply(state, action))
    assert digest.hexdigest() == "ebe1f873bc62699f0095be661fe9fd738745fc67060e03dee3e7d2146bf807aa"


def test_apply_matches_history_key():
    env = make_env(make_instance([4, 4, 6, 8], "apply"))
    for state in reachable_nonterminal(env):
        head, left = state.split("|left=")
        history = head[len("h="):]
        steps = history.split(";") if history else []
        successors = dict(enumerate_actions(parse_values(left)))
        for action in env.valid_actions(state):
            want = f"h={';'.join(steps + [action])}|left={fmt_values(successors[action])}"
            assert env.apply(state, action) == want
    assert env.apply(env.s0, "4 + 8 = 12") == "h=4 + 8 = 12|left=4 6 12"


def reference_terminal_dist(params, env):
    """policy_terminal_dist with its per-state cache keyed on the full state."""
    cache = {}
    out = {}
    stack = [(env.s0, 0.0)]
    while stack:
        state, logp = stack.pop()
        if env.is_terminal(state):
            out[state] = out.get(state, 0.0) + math.exp(logp)
            continue
        if state not in cache:
            d = action_logits(params, state, env)
            cache[state] = (d.action_ids, d.log_probs)
        for action, lp in zip(*cache[state]):
            stack.append((env.apply(state, action), logp + float(lp)))
    return out


def table_rows(env, state):
    """The rows of `state` read off the wrapper's index: each action's row is
    one-hot at its (goal, state, action) column, which every reachable pair has."""
    actions = env.cached_valid_actions(state)
    rows = np.zeros((len(actions), env.table.dim))
    for row, action in enumerate(actions):
        rows[row, env.table.index[(env.goal, state, action)]] = 1.0
    return rows


def test_tabular_rows_stay_per_state():
    # the wrapper reads none of the wrapped env's shared row store and writes
    # none of its step or goal columns: its rows are the table's one-hots
    instances = [
        make_instance([4, 4, 6, 8], "tab"),
        scramble_instance(["R", "U'"], "tab-cube", max_steps=3),
        generate_instances("blocksworld", 1, 22, "4")[0],
    ]
    for inst in instances:
        config = TrainConfig(env_id=inst.env_id, featurizer="tabular")
        env = build_envs(config, [inst])[inst.instance_id]
        by_multiset = {}
        for state in reachable_nonterminal(env):
            assert env.decision_key(state) == state
            mat = env.feature_matrix(state)
            assert mat.tobytes() == table_rows(env, state).tobytes(), state
            assert (mat.sum(axis=1) == 1.0).all()  # one one-hot per row, nothing more
            if inst.env_id == "game24":
                by_multiset.setdefault(state.split("|left=")[1], []).append(mat)
        if inst.env_id == "game24":
            shared = [mats for mats in by_multiset.values() if len(mats) > 1]
            assert shared
            for mats in shared:
                # one-hot rows index (goal, state, action), so histories never collide
                assert not np.array_equal(mats[0], mats[1])

        params = random_params("linear", env, seed=3)
        got, want = policy_terminal_dist(params, inst, env), reference_terminal_dist(params, env)
        if env.parent_mode == "tree":
            assert got == want
        else:  # merging paths add up in another order than the walk's
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        # no rows are kept, neither by the wrapper nor in the wrapped env's cache
        assert sorted(vars(env)) == ["_env", "table"] and not env._env._rows


def test_policy_terminal_dist_shares_default_rows():
    inst = make_instance([3, 3, 8, 8], "dflt")
    env = make_env(inst)
    params = random_params("mlp", env, seed=4)
    reference = reference_terminal_dist(params, make_env(inst))
    assert policy_terminal_dist(params, inst, env) == reference


def _train_outputs(instances, offline_path):
    config = TrainConfig(
        env_id="game24", iterations=24, batch_size=4, learning_rate=0.01, seed=9,
        policy_variant="mlp", hidden_dim=8, offline_data_path=str(offline_path),
        buffer_capacity=20,
    )
    params, report = train(config, instances)
    records = [{k: v for k, v in r.items() if k != "wallclock"} for r in report.records]
    return params.vector.tobytes(), report.trajectory_log, records


def test_training_matches_full_state_keys(tmp_path, monkeypatch):
    instances = [make_instance(h, f"g{i}") for i, h in enumerate(([4, 4, 6, 8], [1, 2, 3, 4]))]
    offline = tmp_path / "offline.jsonl"
    write_offline_game24(offline, instances)
    shared = _train_outputs(instances, offline)
    monkeypatch.setattr(Game24Env, "decision_key", lambda self, state: state)
    assert _train_outputs(instances, offline) == shared
