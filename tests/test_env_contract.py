"""The error contract every environment keeps at the edges of its DAG.

`apply` with an action the env does not know raises `InvalidActionError`; at
a terminal state of the env's `Dag`, `valid_actions` raises
`TerminalQueryError`, and `apply` raises one of the two. Where the reward's
terminal part is the success weight, `success_term` is `w` at exactly the
terminals whose trajectories succeed. In game24, cube2x2 and arc1d, no two
actions of one state share a feature row, so the policy can tell them apart.
"""

import dataclasses

import pytest

from flowseek.environments import ENV_IDS, generate_instances, make_env
from flowseek.errors import InvalidActionError, TerminalQueryError
from flowseek.flow_core import Trajectory

INSTANCES = {
    "game24": generate_instances("game24", 1, seed=3)[0],
    # a budget of 3 keeps the walks small
    "cube2x2": dataclasses.replace(
        generate_instances("cube2x2", 1, seed=7, difficulty="2")[0], max_steps=3),
    "blocksworld": generate_instances("blocksworld", 1, seed=7, difficulty="4")[0],
    "arc1d": dataclasses.replace(generate_instances("arc1d", 1, seed=7)[0], max_steps=3),
    "logicchain": generate_instances("logicchain", 1, seed=7, difficulty="3")[0],
    "toydag": generate_instances("toydag", 1, seed=5)[0],
}


def test_every_env_is_covered():
    assert sorted(INSTANCES) == sorted(ENV_IDS)


@pytest.mark.parametrize("env_id", sorted(INSTANCES))
def test_unknown_actions_and_terminal_queries_raise_typed_errors(env_id):
    env = make_env(INSTANCES[env_id])
    with pytest.raises(InvalidActionError):
        env.apply(env.s0, "no-such-action")
    first_action = env.valid_actions(env.s0)[0]
    dag = env.dag(10**6)
    terminals = [state for i, state in enumerate(dag.states)
                 if dag.offsets[i] == dag.offsets[i + 1]]
    # the first and the last terminal in topological order
    for terminal in (terminals[0], terminals[-1]):
        with pytest.raises(TerminalQueryError):
            env.valid_actions(terminal)
        with pytest.raises((InvalidActionError, TerminalQueryError)):
            env.apply(terminal, first_action)


def paths_to_terminals(env, dag):
    """One (actions, states) path from s0 to each terminal of `dag`."""
    came_from = {0: None}  # state id -> (parent id, action) of the first edge into it
    for i, state in enumerate(dag.states):
        kids = env.children(state) or ()
        for (action, _), child in zip(kids, dag.child[dag.offsets[i]:dag.offsets[i + 1]]):
            came_from.setdefault(child, (i, action))
    for i in range(len(dag.states)):
        if dag.offsets[i] < dag.offsets[i + 1]:
            continue
        actions, ids = [], [i]
        while came_from[ids[-1]] is not None:
            parent, action = came_from[ids[-1]]
            actions.append(action)
            ids.append(parent)
        yield actions[::-1], [dag.states[j] for j in reversed(ids)]


@pytest.mark.parametrize("env_id", ["arc1d", "blocksworld", "cube2x2", "game24"])
def test_success_term_is_w_exactly_at_successful_terminals(env_id):
    env = make_env(INSTANCES[env_id])
    outcomes = set()
    for actions, states in paths_to_terminals(env, env.dag(10**6)):
        traj = Trajectory("contract", states, actions, is_complete=True)
        success = env.is_success(traj)
        assert env.success_term(states[-1]) == (env.w if success else 0.0), states[-1]
        outcomes.add(success)
    assert outcomes == {False, True}  # both kinds of terminal are checked


DISTINCT_ROW_INSTANCES = {
    "game24": lambda: generate_instances("game24", 4, seed=1, difficulty="1-10"),
    # a budget of 3 keeps the walks small
    "cube2x2": lambda: [dataclasses.replace(inst, max_steps=3)
                        for inst in generate_instances("cube2x2", 4, seed=1, difficulty="2")],
    "arc1d": lambda: generate_instances("arc1d", 2, seed=1),
}


@pytest.mark.parametrize("env_id", sorted(DISTINCT_ROW_INSTANCES))
def test_no_two_actions_of_a_state_share_a_row(env_id):
    states = 0
    for inst in DISTINCT_ROW_INSTANCES[env_id]():
        env = make_env(inst)
        dag = env.dag(10**6)
        for i, state in enumerate(dag.states):
            if dag.offsets[i] == dag.offsets[i + 1]:
                continue
            rows = env.feature_matrix(state)
            assert len({row.tobytes() for row in rows}) == len(rows), state
            states += 1
    assert states > 250
