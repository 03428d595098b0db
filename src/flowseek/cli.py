"""Operator command line: gen, train, sample, eval, oracle.

Every command resolves one seed (flag, then config, then FLOWSEEK_SEED, then
0), produces deterministic primary outputs (rerunning with identical
arguments and seed yields byte-identical files, manifest timestamps
excluded), and then writes a manifest naming its inputs by digest: a command
that stops before its outputs are written leaves none.

Exit codes: 0 success, 2 usage or config error, 3 data error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys
from pathlib import Path

import jsonschema

from . import __version__
from .environments import EnvInstance, TabularIndex, make_env, read_instances, write_instances
from .environments import generate_instances as gen_instances
from .errors import (
    CheckpointError,
    ConfigError,
    EnumerationCapError,
    FlowseekError,
    NumericError,
)
from .exploration import ExplorationSchedule
from .metrics import evaluate, load_run, write_breakdown_jsonl, write_metrics_csv
from .oracle import ENUMERATION_CAP, enumerate_dag, policy_terminal_dist, tv_distance
from .policy import PolicyParams, load_checkpoint, save_checkpoint
from .rngutil import substream
from .trainer import ENV_SETTINGS, LocalSearchConfig, TrainConfig, build_envs, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

PROBABILITY = {"type": "number", "minimum": 0, "maximum": 1}

TRAIN_CONFIG_SCHEMA = {
    "type": "object",
    "required": ["env_id", "instances_path"],
    "additionalProperties": False,
    "properties": {
        "env_id": {"type": "string"},
        "instances_path": {"type": "string"},
        "iterations": {"type": "integer", "minimum": 1},
        "batch_size": {"type": "integer", "minimum": 1},
        "learning_rate": {"type": "number", "exclusiveMinimum": 0},
        "optimizer": {"enum": ["sgd", "adaptive"]},
        "loss": {"enum": ["logvar", "tb_logz"]},
        "seed": {"type": "integer"},
        "w": {"type": "number"},
        "lambda": {"type": "number"},
        "reward_floor": {"type": "number", "exclusiveMinimum": 0},
        "offline_data_path": {"type": ["string", "null"]},
        "schedules": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "eps_start": PROBABILITY,
                "eps_end": PROBABILITY,
                "beta_start": {"type": "number", "minimum": 0},
                "beta_end": {"type": "number", "minimum": 0},
                "replay_prob_start": PROBABILITY,
                "replay_prob_end": PROBABILITY,
            },
        },
        "local_search": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "enabled": {"type": "boolean"},
                "num_recon": {"type": "integer", "minimum": 1},
                "k_mode": {"anyOf": [{"enum": ["uniform"]}, {"type": "integer", "minimum": 1}]},
                "to_training": {"type": "boolean"},
            },
        },
        "policy": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "variant": {"enum": ["linear", "mlp"]},
                "hidden_dim": {"type": "integer", "minimum": 1},
                "featurizer": {"enum": ["default", "tabular"]},
            },
        },
        "scorer": {"enum": ["uniform", "progress"]},
        "buffer": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "capacity": {"type": "integer", "minimum": 1},
                "priority_mode": {"enum": ["reward", "log_reward"]},
            },
        },
        "logz": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "shared": {"type": "boolean"},
                "init": {"type": "number"},
                "learning_rate": {"type": ["number", "null"], "exclusiveMinimum": 0},
            },
        },
        "lr_schedule": {"enum": ["none", "cosine"]},
        "max_grad_norm": {"type": ["number", "null"], "exclusiveMinimum": 0},
        "checkpoint_interval": {"type": ["integer", "null"], "minimum": 1},
        "out_dir": {"type": "string"},
    },
}

# config keys whose TrainConfig field has another name; nested keys as "group.key"
FIELD_NAMES = {
    "w": "success_weight",
    "lambda": "intermediate_weight",
    "policy.variant": "policy_variant",
    "policy.hidden_dim": "hidden_dim",
    "policy.featurizer": "featurizer",
    "buffer.capacity": "buffer_capacity",
    "buffer.priority_mode": "priority_mode",
    "logz.shared": "logz_shared",
    "logz.init": "logz_init",
    "logz.learning_rate": "logz_learning_rate",
}


# a checkpoint's `extra`: the env settings of the run that wrote it, typed as a
# train config types them, and its featurizer with any tabular index
_CONFIG_KEYS = {field: key for key, field in FIELD_NAMES.items()}
_PAIR = {"type": "array", "items": {"type": "string"}, "minItems": 3, "maxItems": 3}
CHECKPOINT_EXTRA_SCHEMA = {"type": "object", "required": ["env_id"], "properties": {
    **{name: TRAIN_CONFIG_SCHEMA["properties"][_CONFIG_KEYS.get(name, name)]
       for name in ("env_id", *ENV_SETTINGS)},
    "featurizer": {"type": "object", "required": ["kind"], "properties": {
        "kind": TRAIN_CONFIG_SCHEMA["properties"]["policy"]["properties"]["featurizer"],
        "table": {"type": "object", "required": ["pairs"],
                  "properties": {"pairs": {"type": "array", "items": _PAIR}}}}}}}


def validate(doc, schema: dict, source, error: type[FlowseekError]) -> None:
    """Raise `error` naming `source` and the first field of `doc` that `schema` rejects."""
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        field = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise error(f"{source}: field {field}: {exc.message}") from None


def positive_int(text: str) -> int:
    """An argparse type: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def nonnegative_float(text: str) -> float:
    """An argparse type: a float of at least 0 (inf included, NaN not)."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return value


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _default_seed(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("FLOWSEEK_SEED")
    return int(env) if env else 0


def write_manifest(out_dir: Path, command: str, seed: int, config: dict,
                   inputs: list, outputs: list) -> Path:
    manifest = {
        "tool": "flowseek",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    path = out_dir / f"manifest-{command}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def cmd_gen(args) -> int:
    seed = _default_seed(args.seed)
    out = Path(args.out)
    instances = gen_instances(args.env, args.count, seed, args.difficulty)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_instances(out, instances)
    write_manifest(out.parent, "gen", seed,
                   {"env": args.env, "count": args.count, "difficulty": args.difficulty},
                   [], [out])
    print(f"wrote {len(instances)} {args.env} instances to {out}")
    return EXIT_OK


def _resolve_train_config(args) -> tuple[TrainConfig, dict, Path, Path]:
    with open(args.config, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: invalid JSON at line {exc.lineno}: {exc.msg}")
    validate(doc, TRAIN_CONFIG_SCHEMA, args.config, ConfigError)

    # flags override config fields; the resolved merge is what gets recorded
    for key in ("seed", "iterations", "out_dir", "loss"):
        if getattr(args, key) is not None:
            doc[key] = getattr(args, key)
    doc.setdefault("seed", _default_seed(None))
    doc.setdefault("out_dir", "runs/latest")

    # only the keys the config sets are passed, so every default is TrainConfig's
    fields = {}
    for key, value in doc.items():
        if key in ("policy", "buffer", "logz"):
            for sub, sub_value in value.items():
                fields[FIELD_NAMES[f"{key}.{sub}"]] = sub_value
        elif key == "local_search":
            fields[key] = LocalSearchConfig(**value)
        elif key not in ("instances_path", "out_dir", "schedules"):
            fields[FIELD_NAMES.get(key, key)] = value
    config = TrainConfig(**fields)
    if "schedules" in doc:
        # annealed over the resolved iteration count
        config.schedules = ExplorationSchedule(
            total_iterations=config.iterations, **doc["schedules"]
        )
    return config, doc, Path(doc["instances_path"]), Path(doc["out_dir"])


def _checkpoint_extra(config: TrainConfig, envs: dict) -> dict:
    extra = {name: getattr(config, name) for name in ("env_id", *ENV_SETTINGS)}
    extra["featurizer"] = {"kind": config.featurizer}
    if config.featurizer == "tabular":
        any_env = next(iter(envs.values()))
        extra["featurizer"]["table"] = any_env.table.to_doc()
    return extra


def cmd_train(args) -> int:
    config, doc, instances_path, out_dir = _resolve_train_config(args)
    if not instances_path.exists():
        raise FileNotFoundError(f"instance file not found: {instances_path}")
    inputs = [instances_path]
    if config.offline_data_path:
        if not Path(config.offline_data_path).exists():
            raise FileNotFoundError(f"offline data file not found: {config.offline_data_path}")
        inputs.append(Path(config.offline_data_path))
    ckpt_path = out_dir / "checkpoint.json"
    report_path = out_dir / "report.csv"
    trajlog_path = out_dir / "trajectories.jsonl"

    instances = read_instances(instances_path)
    envs = build_envs(config, instances)
    extra = _checkpoint_extra(config, envs)
    out_dir.mkdir(parents=True, exist_ok=True)

    def checkpoint_writer(iteration, params, opt):
        save_checkpoint(out_dir / f"checkpoint-{iteration + 1}.json", params, opt, extra)

    params, report = train(config, instances, checkpoint_writer=checkpoint_writer, envs=envs)
    save_checkpoint(ckpt_path, params, report.optimizer_state, extra)
    report.write_csv(report_path)
    report.write_trajectory_log(trajlog_path)
    write_manifest(out_dir, "train", config.seed, doc, inputs,
                   [ckpt_path, report_path, trajlog_path])
    final_loss = report.records[-1]["mean_loss"]
    print(f"trained {config.iterations} iterations; final mean loss {final_loss:.6g}")
    print(f"checkpoint: {ckpt_path}")
    return EXIT_OK


def _envs_from_checkpoint(extra: dict, instances: list[EnvInstance]) -> dict:
    """The envs of the run that wrote `extra` (checked), rebuilt from its stored settings."""
    settings = {name: extra[name] for name in ENV_SETTINGS if name in extra}
    feat = extra.get("featurizer", {"kind": "default"})
    config = TrainConfig(env_id=extra["env_id"], featurizer=feat["kind"], **settings)
    table = TabularIndex.from_doc(feat["table"]) if "table" in feat else None
    return build_envs(config, instances, table)


def _load_for_instances(path, instances: list[EnvInstance]) -> tuple[PolicyParams, dict]:
    """A checkpoint's params and the envs it scores `instances` with."""
    params, _, extra = load_checkpoint(path)
    validate(extra, CHECKPOINT_EXTRA_SCHEMA, f"{path}: extra", CheckpointError)
    try:
        envs = _envs_from_checkpoint(extra, instances)
    except ValueError as exc:  # well-typed settings that the env's config refuses
        raise CheckpointError(f"{path}: extra: {exc}") from None
    # build_envs has checked that the envs share one feature dim
    dim = next((env.feature_dim for env in envs.values()), params.feature_dim)
    if dim != params.feature_dim:
        raise CheckpointError(
            f"{path}: checkpoint feature_dim {params.feature_dim} does not fit "
            f"the instances' feature dim {dim}"
        )
    return params, envs


def cmd_sample(args) -> int:
    seed = _default_seed(args.seed)
    ckpt_path = Path(args.checkpoint)
    inst_path = Path(args.instances)
    out = Path(args.out)
    instances = read_instances(inst_path)
    params, envs = _load_for_instances(ckpt_path, instances)

    from .exploration import sample_trajectory_mixed

    beta = 0.0 if args.argmax else args.beta
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        for inst in instances:
            # dropped after its samples, so the memo `params` keeps for it goes too
            env = envs.pop(inst.instance_id)
            for k in range(args.n):
                # the greedy decode does not depend on rng, so one serves every k
                if k == 0 or beta != 0.0:
                    rng = substream(seed, "sample", inst.instance_id, k)
                    traj = sample_trajectory_mixed(params, env, eps=0.0, beta=beta, rng=rng)
                success = env.is_success(traj)
                rec = {
                    "instance_id": inst.instance_id,
                    "sample_index": k,
                    "actions": traj.actions,
                    "reward": traj.reward,
                    "success": bool(success),
                    "solution_key": env.solution_key(traj) if success else None,
                }
                f.write(json.dumps(rec, sort_keys=True))
                f.write("\n")
    write_manifest(out.parent, "sample", seed,
                   {"n": args.n, "beta": args.beta, "argmax": args.argmax},
                   [ckpt_path, inst_path], [out])
    print(f"wrote {args.n} samples per instance for {len(instances)} instances to {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    out = Path(args.out)
    specs = []
    for item in args.samples:
        if "=" in item:
            method, _, path = item.partition("=")
        else:
            method, path = Path(item).stem, item
        specs.append((method, Path(path)))
    runs = [load_run(path, method) for method, path in specs]
    if len(runs) < 2:
        print("single method: creativity omitted (needs >= 2 aligned sample files)")
    reports = evaluate(runs)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(out, reports)
    breakdown = out.with_suffix(".breakdown.jsonl")
    write_breakdown_jsonl(breakdown, runs)
    write_manifest(out.parent, "eval", 0, {"methods": [m for m, _ in specs]},
                   [p for _, p in specs], [out])
    for r in reports:
        div = "undefined" if r.diversity is None else f"{r.diversity:.4f}"
        crea = "-" if r.creativity is None else f"{r.creativity:.4f}"
        print(f"{r.method_id}: accuracy {r.accuracy:.4f} diversity {div} creativity {crea}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    inst_path = Path(args.instances)
    out = Path(args.out)
    inputs = [inst_path]
    if args.checkpoint:
        inputs.append(Path(args.checkpoint))
    instances = read_instances(inst_path)
    params = None
    if args.checkpoint:
        params, envs = _load_for_instances(args.checkpoint, instances)
    else:
        # enumeration reads no features, so instances of any dims may mix
        envs = {i.instance_id: make_env(i) for i in instances}
    n_failed = 0
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        f.write("instance_id,Z,n_trajectories,n_terminals,tv_vs_policy,error\n")
        for inst in instances:
            # an env holds its DAG's states, so it is freed once its row is written
            env = envs.pop(inst.instance_id)
            try:
                summary = enumerate_dag(inst, env, cap=args.cap)
                tv = ""
                if params is not None:
                    pdist = policy_terminal_dist(params, inst, env, cap=args.cap)
                    tv = repr(tv_distance(pdist, summary.target_terminal_dist))
                f.write(
                    f"{inst.instance_id},{summary.Z!r},{summary.n_trajectories},"
                    f"{summary.n_terminals},{tv},\n"
                )
            except EnumerationCapError as exc:
                n_failed += 1
                f.write(f"{inst.instance_id},,,,,cap-exceeded:{exc.partial_count}\n")
    write_manifest(out.parent, "oracle", 0, {"cap": args.cap}, inputs, [out])
    print(f"oracle report for {len(instances)} instances written to {out}")
    if n_failed == len(instances):
        print("all instances exceeded the enumeration cap", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowseek",
        description="Train and evaluate reward-proportional samplers on discrete reasoning tasks.",
    )
    parser.add_argument("--version", action="version", version=f"flowseek {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    from .environments import ENV_IDS

    p = sub.add_parser("gen", help="generate a reproducible instance file")
    p.add_argument("--env", required=True, choices=ENV_IDS)
    p.add_argument("--count", type=positive_int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--difficulty", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="run the training loop from a JSON config")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--loss", choices=["logvar", "tb_logz"], default=None)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="sample trajectories from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--instances", required=True)
    p.add_argument("-n", type=positive_int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--beta", type=nonnegative_float, default=1.0)
    p.add_argument("--argmax", action="store_true", help="greedy decode (the beta=0 rollout)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="compute accuracy/diversity/creativity from sample files")
    p.add_argument("samples", nargs="+", help="sample files, optionally method=path")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("oracle", help="enumerate instances and report Z / TV distance")
    p.add_argument("--instances", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--cap", type=positive_int, default=ENUMERATION_CAP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, jsonschema.ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FlowseekError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
