"""The reward fold and the tree-mode target pass built on it.

The digests were taken with the per-env `reward` methods and the
per-trajectory target walk that the fold replaced; they must not move a bit.
"""

import hashlib

import pytest

from flowseek.environments import generate_instances, make_env
from flowseek.environments.game24 import make_instance
from flowseek.flow_core import Trajectory
from flowseek.oracle import enumerate_dag

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

TARGET_CASES = {
    "game24": make_instance([4, 4, 6, 8], "g24"),
    "arc1d": generate_instances("arc1d", 1, seed=7)[0],
    "logicchain": generate_instances("logicchain", 1, seed=7, difficulty="4")[0],
}

TARGET_DIGESTS = {
    "game24": "f6b5ca647ceb97a5b00bd93609eb25ee678694bb2c37edcaf346aa292a9e2703",
    "arc1d": "83790cbb49639918bfd59be7263043902610b6a2fb087380971424aea66827c1",
    "logicchain": "a28ef396d37d11824f801fafeea55590883c16eaf3d6775ae4f15fb42c7a71ff",
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
                traj = Trajectory("pin", states, actions, [0.0] * len(actions))
                digest.update(env.reward(traj).hex().encode())
                continue
            for action, child in kids:
                stack.append((actions + [action], states + [child]))
    return digest.hexdigest()


def target_digest(summary):
    """sha256 over Z, the target's items in order and the trajectory count."""
    digest = hashlib.sha256(summary.Z.hex().encode())
    for terminal, mass in summary.target_terminal_dist.items():
        digest.update(f"{terminal}={mass.hex()};".encode())
    digest.update(str(summary.n_trajectories).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(REWARD_CASES))
def test_rewards_match_pinned_digest(case):
    assert reward_digest(*REWARD_CASES[case]) == REWARD_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(TARGET_CASES))
def test_tree_targets_match_pinned_digest(case):
    inst = TARGET_CASES[case]
    assert target_digest(enumerate_dag(inst, make_env(inst))) == TARGET_DIGESTS[case]

