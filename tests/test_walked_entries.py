"""game24's per-env map from walked state strings to their decode entries.

`Game24Env.children` maps each child string it builds to the child's decode
entry, and the env's queries read that map before they parse a string. The
map must agree with parsing, hold only the strings of the env's `Dag`, and
stay as it is under training and sampling, which build states with `apply`.
"""

import pytest

from flowseek.environments import TabularEnv, TabularIndex, game24, make_env
from flowseek.environments.game24 import make_instance
from flowseek.exploration import sample_trajectory_mixed
from flowseek.oracle import enumerate_dag, policy_terminal_dist
from flowseek.rngutil import substream
from flowseek.trainer import TrainConfig, train

from conftest import random_params

INSTANCE = make_instance([1, 5, 6, 8], "g24")


def fresh_env(case):
    if case == "tabular":
        table = TabularIndex.build([make_env(INSTANCE)])
        return TabularEnv(make_env(INSTANCE), table)
    return make_env(INSTANCE, scorer=case)


@pytest.mark.parametrize("case", ["uniform", "progress", "tabular"])
def test_walked_states_map_to_their_parsed_entries(case):
    env = fresh_env(case)
    assert env._entries == {}
    dag = env.dag(10**6)
    entries = env._entries
    game24_env = env._env if case == "tabular" else env  # the table keys on full states
    assert entries.keys() == set(dag.states) - {env.s0}
    for state, mapped in entries.items():
        parsed = game24._context(state)
        assert (mapped.left, mapped.terminal, mapped.solved, mapped.actions) == (
            parsed.left, parsed.terminal, parsed.solved, parsed.actions)
        assert game24_env.decision_key(state) == state[state.index("|left="):]

    # the oracle reads the map, training and sampling build their states with `apply`
    params = random_params("mlp", env, seed=4)
    enumerate_dag(INSTANCE, env)
    policy_terminal_dist(params, INSTANCE, env)
    config = TrainConfig(env_id="game24", iterations=6, batch_size=2, policy_variant="mlp",
                         hidden_dim=4, seed=1)
    train(config, [INSTANCE], envs={INSTANCE.instance_id: env})
    for k in range(5):
        sample_trajectory_mixed(params, env, eps=0.5, beta=1.0,
                                rng=substream(2, "sample", INSTANCE.instance_id, k))
    assert entries.keys() == set(dag.states) - {env.s0}


def test_strings_the_env_did_not_build_are_parsed():
    env = make_env(INSTANCE)
    env.dag(10**6)
    size = len(env._entries)
    # the multiset 6 8 after a history no walk builds, with its numbers out of order
    state = "h=made up|left=8 6"
    assert not env.is_terminal(state)
    assert env.valid_actions(state) == game24._context("h=|left=6 8").actions
    assert env.decision_key(state) == "|left=8 6"
    assert env.apply(state, "6 - 8 = -2") == "h=made up;6 - 8 = -2|left=-2"
    assert env.is_terminal("h=|left=24") and env.success_term("h=x|left=24") == env.w
    for query in (env.is_terminal, env.valid_actions, env.decision_key, env.feature_matrix):
        with pytest.raises(ValueError, match="substring not found"):
            query("h=no suffix")
    for query in (env.is_terminal, env.valid_actions, env.feature_matrix):
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            query("h=|left=4 x")
    with pytest.raises(ValueError, match="substring not found"):
        env.apply("h=no suffix", "6 - 8 = -2")
    assert len(env._entries) == size
