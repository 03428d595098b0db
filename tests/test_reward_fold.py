"""The reward fold and the oracle passes built on it.

The reward and tree-target digests were taken with the per-env `reward`
methods and the per-trajectory target walk that the fold replaced. The
exact-mode target digests (the forward pass, and the trajectory walk where
the floor can bind) and the policy-mass digests were taken with the
per-state string dicts that the `Dag` passes replaced. The `progress`
target digests were taken while that scorer still applied each step's action
to score it, before it read the child the `Dag` holds. None may move a bit.
"""

import dataclasses
import hashlib

import pytest

from flowseek.environments import TabularEnv, TabularIndex, generate_instances, make_env
from flowseek.environments.game24 import make_instance
from flowseek.flow_core import Trajectory
from flowseek.oracle import enumerate_dag, policy_terminal_dist

from conftest import random_params

REWARD_CASES = {
    "game24-uniform": (generate_instances("game24", 2, seed=3), "uniform"),
    "game24-progress": (generate_instances("game24", 2, seed=3), "progress"),
    "arc1d": (generate_instances("arc1d", 1, seed=3), "uniform"),
    "logicchain": (generate_instances("logicchain", 2, seed=3, difficulty="4"), "uniform"),
}

REWARD_DIGESTS = {
    "game24-uniform": "715f36ee5b522881b5fa65860b2f90204c52acebfabed61e1d60209c71782ddf",
    "game24-progress": "6b284b47b098a3ca6917017f251640547c48db95d70784708e8f1d11576abf8d",
    "arc1d": "17e8efead0fa6a490d7282b78d3830f79d1cf9b2e0c92106bf95ac5ab0e1333c",
    "logicchain": "e155bc479b63f19b403346f04b06467ac36068cf2af93415c6fb0c4767aaebf9",
}

GAME24 = make_instance([4, 4, 6, 8], "g24")
TARGET_CASES = {  # case: (instance, env settings)
    "game24": (GAME24, {}),
    "game24-progress": (GAME24, {"scorer": "progress"}),
    "arc1d": (generate_instances("arc1d", 1, seed=7)[0], {}),
    "logicchain": (generate_instances("logicchain", 1, seed=7, difficulty="4")[0], {}),
}

TARGET_DIGESTS = {
    "game24": "f6b5ca647ceb97a5b00bd93609eb25ee678694bb2c37edcaf346aa292a9e2703",
    "game24-progress": "854c7c8737fd4f9fea5aa0c0db18c107cf04ce1bef83a510d66a3d3e8ae41cf5",
    "arc1d": "83790cbb49639918bfd59be7263043902610b6a2fb087380971424aea66827c1",
    "logicchain": "a28ef396d37d11824f801fafeea55590883c16eaf3d6775ae4f15fb42c7a71ff",
}

BLOCKSWORLD_4 = generate_instances("blocksworld", 1, seed=7, difficulty="4")[0]
EXACT_TARGET_CASES = {  # case: (instance, env settings)
    "blocksworld-4": (BLOCKSWORLD_4, {}),
    # with no intermediate weight every failed trajectory gets the floor reward
    "blocksworld-4-floor": (BLOCKSWORLD_4, {"intermediate_weight": 0.0}),
    "blocksworld-4-progress": (BLOCKSWORLD_4, {"scorer": "progress"}),
    "cube2x2-3": (dataclasses.replace(
        generate_instances("cube2x2", 1, seed=7, difficulty="2")[0], max_steps=3), {}),
    "toydag": (generate_instances("toydag", 1, seed=5)[0], {}),
}

EXACT_TARGET_DIGESTS = {
    "blocksworld-4": "f0c8969e8cf05563b85a3086652d859395ea874b3108228465653078009e3736",
    "blocksworld-4-floor": "acbeb258279989b81ccdc804fb5635f537add94bab4db7b6b1a6f0fdfa18118b",
    "blocksworld-4-progress": "369fa71e9870b8bafb0a7c6679cfd9f8ec59b61106d118e74bb805a195652050",
    "cube2x2-3": "c1286fe4e82f320866c4728c41dc43e1007c78117cd504963e9bdf217bcf7b74",
    "toydag": "c6aa4e3ffbee9641bf4a9183e9726b5bb79bf45e345d5c4596a31177b7072d71",
}

# every env once (no reward setting moves a policy's mass), and game24 under
# the tabular featurizer, whose decision key is the full state
POLICY_CASES = {name: inst for name, (inst, settings)
                in {**TARGET_CASES, **EXACT_TARGET_CASES}.items() if not settings}
POLICY_CASES["tabular-game24"] = GAME24

POLICY_DIGESTS = {
    "arc1d": "c448ee6c7775bd682db0751d5ce885665defd8b2909b2dbc6f1c11abd12ed6fd",
    "blocksworld-4": "7c579a20bdfb0e61c6c2bf37930b37418acd964e67326b276ea959da1a1b94fb",
    "cube2x2-3": "3d823f873147d6ffe0db7ff01e51e69b9df6e025b6ccb6f062057e874e87eecb",
    "game24": "d1a2d2ee8ca85a0a0db9dd6e4091775bd800d6281d8a394fee1914346a00479c",
    "logicchain": "0b6dd10429769e509fdb88d507404e008047da780b1719b374bac2b7b2afd769",
    "tabular-game24": "125c681eb9e1a35d4b50a9ea54486d0717511342481b0a348d107c14cf41d3e0",
    "toydag": "a5a6038d5371a8fb8de9c960a9dffdd2f5cc36d80f291bbd2b8f7284b6221573",
}


def reward_digest(instances, scorer):
    """sha256 over the reward of every complete trajectory, depth first."""
    digest = hashlib.sha256()
    for inst in instances:
        env = make_env(inst, scorer=scorer)
        stack = [([], [env.s0])]
        while stack:
            actions, states = stack.pop()
            kids = env.children(states[-1])
            if kids is None:
                traj = Trajectory("pin", states, actions)
                digest.update(env.reward(traj).hex().encode())
                continue
            for action, child in kids:
                stack.append((actions + [action], states + [child]))
    return digest.hexdigest()


def mass_digest(digest, dist):
    """`digest` fed a distribution's items in order."""
    for terminal, mass in dist.items():
        digest.update(f"{terminal}={mass.hex()};".encode())
    return digest


def target_digest(summary):
    """sha256 over Z, the target's items in order and the trajectory count."""
    digest = mass_digest(hashlib.sha256(summary.Z.hex().encode()), summary.target_terminal_dist)
    digest.update(str(summary.n_trajectories).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(REWARD_CASES))
def test_rewards_match_pinned_digest(case):
    assert reward_digest(*REWARD_CASES[case]) == REWARD_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(TARGET_CASES))
def test_tree_targets_match_pinned_digest(case):
    inst, settings = TARGET_CASES[case]
    summary = enumerate_dag(inst, make_env(inst, **settings))
    assert target_digest(summary) == TARGET_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(EXACT_TARGET_CASES))
def test_exact_targets_match_pinned_digest(case):
    inst, settings = EXACT_TARGET_CASES[case]
    summary = enumerate_dag(inst, make_env(inst, **settings))
    assert target_digest(summary) == EXACT_TARGET_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(POLICY_CASES))
def test_policy_masses_match_pinned_digest(case):
    inst = POLICY_CASES[case]
    env = make_env(inst)
    if case.startswith("tabular-"):
        env = TabularEnv(env, TabularIndex.build([make_env(inst)]))
    dist = policy_terminal_dist(random_params("linear", env, seed=3), inst, env)
    assert mass_digest(hashlib.sha256(), dist).hexdigest() == POLICY_DIGESTS[case]
