"""Process-wide table entries link their children.

A game24 decode entry's `next` maps each equation, in `enumerate_actions`
order, to the entry of the multiset it leaves, and `actions` is the list that
`valid_actions` returns to every env. Evicting entries past `TABLE_ENTRIES`
may leave a parent holding a child that the table decodes again later; entry
facts are pure, so targets, policy masses and samples do not move.
"""

import numpy as np

from flowseek.environments import cube2x2, game24, generate_instances, make_env, make_envs
from flowseek.environments.game24 import enumerate_actions, fmt_values
from flowseek.exploration import sample_trajectory_mixed
from flowseek.oracle import enumerate_dag, policy_terminal_dist
from flowseek.rngutil import substream

from conftest import random_params, reachable_nonterminal


def reachable_entries(env):
    """The decode entry of every state reachable from s0, terminals included."""
    states = reachable_nonterminal(env)
    children = [child for state in states for _, child in env.children(state)]
    return [game24._context(s) for s in states + children]


def test_game24_next_links_each_equation_to_its_child_entry(monkeypatch):
    monkeypatch.setattr(game24, "_TABLE", {})
    instances = generate_instances("game24", 6, 3)
    envs = make_envs(instances)
    n_terminal = 0
    for inst in instances:
        env = envs[inst.instance_id]
        for entry in reachable_entries(env):
            if entry.terminal:
                assert entry.next is game24._NOTHING
                n_terminal += 1
                continue
            pairs = enumerate_actions(entry.values)
            assert list(entry.next) == [eq for eq, _ in pairs] == entry.actions
            for eq, nxt in pairs:
                child = entry.next[eq]
                assert child.left == fmt_values(nxt) and child.values == nxt
    assert n_terminal
    a, b = (envs[inst.instance_id] for inst in instances[:2])
    s0 = instances[0].s0
    assert a.valid_actions(s0) is b.valid_actions(s0) is game24._context(s0).actions
    assert a.cached_valid_actions(s0) is b.cached_valid_actions(s0)


def test_cube_valid_actions_is_the_shared_move_list():
    env = make_env(generate_instances("cube2x2", 1, 3, "2")[0])
    assert env.valid_actions(env.s0) is cube2x2.MOVES


def oracle_and_samples(instances):
    """Z, the targets, the policy masses and five seeded samples per instance."""
    out = []
    for inst in instances:
        env = make_env(inst)
        params = random_params("mlp", env, seed=4)
        summary = enumerate_dag(inst, env)
        samples = [
            sample_trajectory_mixed(params, env, eps=0.1, beta=1.0,
                                    rng=substream(5, "sample", inst.instance_id, k)).actions
            for k in range(5)
        ]
        out.append((summary.Z, summary.target_terminal_dist,
                    policy_terminal_dist(params, inst, env), samples))
    return out


def test_evicted_children_leave_targets_masses_and_samples_unchanged(monkeypatch):
    instances = generate_instances("game24", 3, 3)
    monkeypatch.setattr(game24, "_TABLE", {})
    want = oracle_and_samples(instances)

    monkeypatch.setattr(game24, "_TABLE", {})
    monkeypatch.setattr(game24, "TABLE_ENTRIES", 8)
    assert oracle_and_samples(instances) == want
    assert len(game24._TABLE) == 8
    # a parent still links a child the table has since decoded again
    start = game24._context(instances[-1].s0)
    first = next(iter(start.next.values()))
    assert game24._context(f"h=|left={first.left}") is not first
    np.testing.assert_array_equal(game24._context(f"h=|left={first.left}").rows, first.rows)


def test_generation_solves_each_draw_once(monkeypatch):
    hands = []

    def counting(numbers):
        hands.append(tuple(numbers))
        return solve(numbers)

    solve = game24.solve_game24
    monkeypatch.setattr(game24, "solve_game24", counting)
    instances = game24.generate_instances(20, 1)
    assert len(instances) == 20 and all(inst.gold_solutions for inst in instances)
    assert len(hands) == len(set(hands)) >= 20
