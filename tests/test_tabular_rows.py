"""The tabular featurizer's index, rows and policy masses, pinned.

The digests were taken while the wrapper still built each row with a
`featurize` of its own and kept the matrices in a row cache; the rows it now
builds from `table.index` on every call may not move a bit.
"""

import dataclasses
import hashlib
import json

import pytest

from flowseek.environments import generate_instances
from flowseek.environments.game24 import make_instance
from flowseek.oracle import policy_terminal_dist
from flowseek.trainer import TrainConfig, build_envs

from conftest import random_params

CASES = {
    "toydag": generate_instances("toydag", 1, seed=5)[0],
    "game24": make_instance([4, 4, 6, 8], "g24"),
    "blocksworld-4": generate_instances("blocksworld", 1, seed=7, difficulty="4")[0],
    # budgets of 3 keep the walks small
    "cube2x2-3": dataclasses.replace(
        generate_instances("cube2x2", 1, seed=7, difficulty="2")[0], max_steps=3),
    "arc1d-3": dataclasses.replace(generate_instances("arc1d", 1, seed=7)[0], max_steps=3),
    "logicchain": generate_instances("logicchain", 1, seed=7, difficulty="4")[0],
}

DIGESTS = {
    "toydag": "e42d67773ef20f31d9fe5c34527cc357f25e649551c61fff20ca87da8da7dd83",
    "game24": "ff2583f7dc677a558189297f286ffb4e39e7cf207965cb32ccc24b63dae3235e",
    "blocksworld-4": "07301ef0c93bf8517acd5e0f9c3007f7fe477b36d5b51a62577f82e7ea22762e",
    "cube2x2-3": "d43fd70821a796c62c8c542bdf6d78e1a1355373cde12ea500790a0687191e21",
    "arc1d-3": "025ead081faf2afdd4dbe8290dee7bd3416513f55b6d46c7ceb92904a281509e",
    "logicchain": "1effa43f9a5871d5fd511b5cde0d583736623af1327e0dfee01b3d8da111c66f",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_tabular_index_rows_and_masses_match_pinned_digest(case):
    """sha256 over the index's document, the rows at every non-terminal state
    of the `Dag` in id order, and the policy's terminal masses in order."""
    inst = CASES[case]
    config = TrainConfig(env_id=inst.env_id, featurizer="tabular")
    env = build_envs(config, [inst])[inst.instance_id]
    digest = hashlib.sha256(json.dumps(env.table.to_doc()).encode())
    dag = env.dag(10**6)
    for i, state in enumerate(dag.states):
        if dag.offsets[i] < dag.offsets[i + 1]:
            digest.update(env.feature_matrix(state).tobytes())
    dist = policy_terminal_dist(random_params("linear", env, seed=3), inst, env)
    for terminal, mass in dist.items():
        digest.update(f"{terminal}={mass.hex()};".encode())
    assert digest.hexdigest() == DIGESTS[case]
    # after the oracle pass the wrapper still holds its env and index, no rows
    assert sorted(vars(env)) == ["_env", "table"]
