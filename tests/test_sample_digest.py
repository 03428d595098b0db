"""Sample files, pinned bit for bit.

Three small `flowseek train` runs, game24 (mlp), blocksworld (linear) and
cube2x2 at a budget of 3 (linear), each followed by `flowseek sample` at
beta 1 and beta 2 with several draws per instance, so the draws of one
instance share decision points. Each digest is sha256 over the sample file.
A change that only makes sampling cheaper must leave all six where they are.
"""

import dataclasses
import hashlib
import json

import pytest

from flowseek.cli import main
from flowseek.environments import generate_instances, write_instances

CASES = {  # case: (env_id, difficulty, max_steps, policy config)
    "game24-mlp": ("game24", "1-10", None, {"variant": "mlp", "hidden_dim": 16}),
    "blocksworld-linear": ("blocksworld", "6", None, {"variant": "linear"}),
    "cube2x2-linear": ("cube2x2", "2", 3, {"variant": "linear"}),
}

DIGESTS = {
    ("blocksworld-linear", "1"): "19ee3b8fb2579335899dbc7df0e93a9db14c2df73f1ddb2b810534f169bf6c9e",
    ("blocksworld-linear", "2"): "00ef1c5e6f393e6dfe4d16bbff2801e3faa3e0a000da1c6ef94f4fee62857fc0",
    ("cube2x2-linear", "1"): "da4dd35e3a8c060e9cf8ab5c7337696e86464fc3d2c6541d45917f4a412e4857",
    ("cube2x2-linear", "2"): "e8b088bfa825bbe9f4010b065f9a8a05af2b8c389ff19a526e22218be79f0b0e",
    ("game24-mlp", "1"): "d1a7b36dbcc60647e054c003c29622f3bb4b201b38a54422d33608f345b8ccb9",
    ("game24-mlp", "2"): "7ce9d701ce30aa2ed217108830c9c7c4243e22a8d58a1aba5e8b4e10480fbeab",
}


def sample_digest(case: str, beta: str, tmp_path) -> str:
    env_id, difficulty, max_steps, policy = CASES[case]
    instances = generate_instances(env_id, 3, seed=1, difficulty=difficulty)
    if max_steps is not None:
        instances = [dataclasses.replace(i, max_steps=max_steps) for i in instances]
    inst_path = tmp_path / "instances.jsonl"
    write_instances(inst_path, instances)
    config = {"env_id": env_id, "instances_path": str(inst_path), "iterations": 40,
              "batch_size": 8, "seed": 3, "policy": policy, "out_dir": str(tmp_path / "run")}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["train", str(config_path)]) == 0
    out = tmp_path / "samples" / "samples.jsonl"
    assert main(["sample", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                 "--instances", str(inst_path), "-n", "12", "--seed", "1",
                 "--beta", beta, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("beta", ["1", "2"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_sample_file_matches_pinned_digest(case, beta, tmp_path):
    assert sample_digest(case, beta, tmp_path) == DIGESTS[case, beta]
