"""The three benchmark workloads and their cold set-up.

Each workload fixes an environment, an instance recipe and a training
configuration. Instances come from the workload seed; training and sampling
use the fixed seed `PROGRAM_SEED`, so the program sees only the generated
instances (and, for game24, the offline file written from them).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from flowseek import oracle
from flowseek.environments import EnvInstance, cube2x2, game24, generate_instances
from flowseek.exploration import ExplorationSchedule
from flowseek.trainer import LocalSearchConfig, TrainConfig, build_envs, ingest_offline

PROGRAM_SEED = 0

# The cube distance table is filled lazily, one BFS layer at a time, for the
# whole process. Depth 7 holds 289,896 of its 3,674,160 entries and costs
# about 1.5 s; depth 11 (the full table) costs over 100 s and 465 MB, which
# does not fit several cold set-ups in one benchmark run. This sequence
# scrambles to a configuration at distance exactly 7, so one query fills the
# table through depth 7.
CUBE_WARMUP_MOVES = ["U", "R", "U", "R", "U", "F", "U"]
CUBE_WARMUP_DEPTH = 7


@dataclass(frozen=True)
class Workload:
    name: str
    env_id: str
    instances: int
    difficulty: str
    iterations: int  # per train() call
    samples_per_instance: int
    train: dict = field(default_factory=dict)  # TrainConfig fields
    max_steps: int | None = None  # overrides the generator's step budget
    offline: bool = False
    keep: Callable[[EnvInstance], bool] | None = None  # instances the workload draws from
    # instances generated per kept one; fixed, so that set-up does the same
    # work for every seed (doubled only if a seed leaves too few kept)
    pool_factor: int = 1

    def draw(self, seed: int) -> list[EnvInstance]:
        """The first `instances` generated instances that `keep` accepts."""
        pool = self.instances * self.pool_factor
        while True:
            drawn = generate_instances(self.env_id, pool, seed, self.difficulty)
            kept = [i for i in drawn if self.keep is None or self.keep(i)][: self.instances]
            if len(kept) == self.instances:
                break
            pool *= 2
        if self.max_steps is not None:
            kept = [dataclasses.replace(i, max_steps=self.max_steps) for i in kept]
        return kept

    def smoke(self) -> "Workload":
        """The same workload at a size that runs in a few seconds."""
        return dataclasses.replace(self, instances=2, iterations=6, samples_per_instance=2)


def _four_distinct_numbers(inst: EnvInstance) -> bool:
    # hands with a repeated number have fewer distinct moves: 3,760 trajectories
    # with four distinct numbers against about 2,000 with one pair
    return len(set(game24.parse_values(inst.s0.split("|left=")[1]))) == 4


def _one_two_block_stack(inst: EnvInstance) -> bool:
    # the start layout sets the branching: with four of the five blocks on the
    # table an instance has about 2,980 trajectories (4% spread), against 30 to
    # 7,100 over all layouts
    return inst.s0.count(":table") == 4


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="game24-mlp-offline",
            env_id="game24",
            instances=20,
            difficulty="1-10",
            iterations=200,
            samples_per_instance=20,
            train=dict(
                policy_variant="mlp",
                hidden_dim=32,
                loss="logvar",
                batch_size=8,
                buffer_capacity=400,
                local_search=LocalSearchConfig(enabled=True),
            ),
            offline=True,
            keep=_four_distinct_numbers,
            pool_factor=4,
        ),
        Workload(
            name="cube-exact-tb",
            env_id="cube2x2",
            instances=10,
            difficulty="2",
            max_steps=3,
            iterations=200,
            samples_per_instance=100,
            train=dict(policy_variant="linear", loss="tb_logz", batch_size=8),
        ),
        Workload(
            name="blocksworld-exact-oracle",
            env_id="blocksworld",
            # 40 rather than 20: oracle_tv varies with the instances drawn, and
            # its spread over ten seeds fell from 0.12 to 0.08 with twice the instances
            instances=40,
            difficulty="6",
            iterations=200,
            samples_per_instance=50,
            train=dict(policy_variant="linear", loss="logvar", batch_size=8),
            keep=_one_two_block_stack,
            pool_factor=16,
        ),
    )
}


@dataclass
class Prepared:
    """Everything a warm phase needs: the workload, its instances and config."""

    workload: Workload
    instances: list
    config: TrainConfig


def prepare(workload: Workload, seed: int, workdir: Path) -> Prepared:
    """Cold set-up: generate instances, write the offline file into `workdir`,
    fill the process-wide caches."""
    instances = workload.draw(seed)
    offline_path = None
    if workload.offline:
        offline_path = workdir / "offline.jsonl"
        oracle.write_offline_game24(offline_path, instances)
    config = TrainConfig(
        env_id=workload.env_id,
        iterations=workload.iterations,
        seed=PROGRAM_SEED,
        offline_data_path=None if offline_path is None else str(offline_path),
        schedules=ExplorationSchedule(total_iterations=workload.iterations),
        **workload.train,
    )
    _warm_caches(workload, instances, config)
    return Prepared(workload, instances, config)


def _warm_caches(workload: Workload, instances: list, config: TrainConfig) -> None:
    """Fill the process-wide caches a CLI process pays for once.

    game24 keeps two `lru_cache`s over value multisets: instance generation
    already fills `enumerate_actions` (the solver walks every multiset), and
    this fills `_pairs_reaching_target`, which featurization calls. The
    offline file is ingested here once, as a CLI train command does. cube2x2
    keeps the BFS distance table, filled through `CUBE_WARMUP_DEPTH` by one
    query. blocksworld has no process-wide cache.
    """
    if config.offline_data_path:
        ingest_offline(config.offline_data_path, build_envs(config, instances))
    if workload.env_id == "game24":
        seen = set()
        stack = [game24.parse_values(inst.s0.split("|left=")[1]) for inst in instances]
        while stack:
            for _, nxt in game24.enumerate_actions(stack.pop()):
                if nxt not in seen:
                    seen.add(nxt)
                    game24._pairs_reaching_target(nxt)
                    stack.append(nxt)
    if workload.env_id == "cube2x2":
        config_bytes = cube2x2.SOLVED
        for move in CUBE_WARMUP_MOVES:
            config_bytes = cube2x2.apply_move(config_bytes, move)
        depth = cube2x2.distance_to_solved(config_bytes)
        if depth != CUBE_WARMUP_DEPTH:
            raise RuntimeError(f"cube warm-up reached depth {depth}, want {CUBE_WARMUP_DEPTH}")
