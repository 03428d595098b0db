"""Training outputs, pinned bit for bit.

Three small runs mirror the benchmark workloads: game24 (mlp, logvar, batch
8, an offline file and local search), cube2x2 at a budget of 3 (linear,
`tb_logz`) and blocksworld (linear, logvar). Each digest is sha256 over the
final parameter bytes, `report.csv` and the trajectory log. A change that
only makes training cheaper must leave all three where they are.
"""

import dataclasses
import hashlib

import pytest

from flowseek.environments import generate_instances
from flowseek.oracle import write_offline_game24
from flowseek.trainer import LocalSearchConfig, TrainConfig, train

CASES = {  # case: (env_id, instance count, difficulty, max_steps, TrainConfig fields)
    "game24-mlp-offline": ("game24", 3, "1-10", None, dict(
        policy_variant="mlp", hidden_dim=16, loss="logvar", batch_size=8,
        buffer_capacity=400, local_search=LocalSearchConfig(enabled=True))),
    "cube-exact-tb": ("cube2x2", 3, "2", 3, dict(
        policy_variant="linear", loss="tb_logz", batch_size=8)),
    "blocksworld-logvar": ("blocksworld", 3, "6", None, dict(
        policy_variant="linear", loss="logvar", batch_size=8)),
}

DIGESTS = {
    "game24-mlp-offline": "a2d2e965221f135a32b5a5686b4e6016977c9e21cce05a2a13079a72c3b4c7f7",
    "cube-exact-tb": "013195ef1c013f526b34d9d2f3ed7cb2c0499fda1fd1b29e900fc087ec2d451b",
    "blocksworld-logvar": "e26180d94f9b1aa2a45c421a5d2821146661cfa4681ecb5072a6cba18a901f85",
}


def run_digest(case: str, tmp_path) -> str:
    env_id, count, difficulty, max_steps, fields = CASES[case]
    instances = generate_instances(env_id, count, seed=1, difficulty=difficulty)
    if max_steps is not None:
        instances = [dataclasses.replace(i, max_steps=max_steps) for i in instances]
    offline = None
    if env_id == "game24":
        offline = tmp_path / "offline.jsonl"
        write_offline_game24(offline, instances)
    config = TrainConfig(env_id=env_id, iterations=120, seed=3,
                         offline_data_path=None if offline is None else str(offline), **fields)
    params, report = train(config, instances)
    report.write_csv(tmp_path / "report.csv")
    report.write_trajectory_log(tmp_path / "trajectories.jsonl")
    h = hashlib.sha256(params.vector.tobytes())
    h.update((tmp_path / "report.csv").read_bytes())
    h.update((tmp_path / "trajectories.jsonl").read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_training_outputs_match_pinned_digest(case, tmp_path):
    assert run_digest(case, tmp_path) == DIGESTS[case]
