"""Command-line entry point.

Subcommands: gen (synthetic datasets), train, eval, ablate, and
export-metrics.  Configuration precedence is defaults < --config file
< explicit flags; the effective configuration is echoed into the output
directory so any run can be reproduced from its artifacts.  All output
files are written to a temp name and renamed into place, so a failed run
leaves no partial files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .benchmark import ABLATION_AXES, parse_seeds, run_ablation
from .data import (
    SynthSpec,
    dataclass_from_dict,
    generate_synthetic,
    load_dataset,
    save_dataset,
    write_text_atomic,
)
from .errors import ConfigError, ContractError, CrosscamError
from .evaluation import evaluate
from .model import load_checkpoint, save_checkpoint
from .trainer import TrainConfig, TrainLog, train


def _bool_flag(value: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {value!r}")


def _flag_name(field_name: str) -> str:
    return "--" + field_name.replace("_", "-")


def _add_dataclass_flags(parser: argparse.ArgumentParser, cls) -> None:
    """One optional flag per dataclass field; None means 'not provided'."""
    for f in dataclasses.fields(cls):
        kind = {"bool": _bool_flag, "int": int, "float": float}.get(f.type, str)
        parser.add_argument(_flag_name(f.name), dest=f.name, type=kind, default=None)


def _collect_overrides(args: argparse.Namespace, cls) -> dict:
    out = {}
    for f in dataclasses.fields(cls):
        value = getattr(args, f.name, None)
        if value is not None:
            out[f.name] = value
    return out


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            values = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
    if not isinstance(values, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return values


def _from_sources(cls, args: argparse.Namespace):
    """cls from defaults < --config file < explicit flags, validated."""
    file_values = _load_config_file(args.config) if args.config else {}
    return dataclass_from_dict(cls, {**file_values, **_collect_overrides(args, cls)})


def _write_json(path: str, payload) -> None:
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_run_meta(out_dir: str, command: str, seed: int | None) -> None:
    meta = {
        "version": __version__,
        "command": command,
        "seed": seed,
        "wall_clock_unix": time.time(),
    }
    _write_json(os.path.join(out_dir, "run_meta.json"), meta)


def _ensure_out_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)


def cmd_gen(args: argparse.Namespace) -> int:
    spec: SynthSpec = _from_sources(SynthSpec, args)
    datasets = generate_synthetic(spec)
    _ensure_out_dir(args.out)
    for split, ds in datasets.items():
        save_dataset(ds, os.path.join(args.out, f"{split}.txt"))
    _write_json(os.path.join(args.out, "gen_config.json"), dataclasses.asdict(spec))
    _write_run_meta(args.out, "gen", spec.seed)
    print(
        f"wrote {args.out}/train.txt ({len(datasets['train'])} samples), "
        f"query.txt ({len(datasets['query'])}), gallery.txt ({len(datasets['gallery'])})"
    )
    return 0


def _save_full_checkpoint(path: str, result) -> None:
    save_checkpoint(
        path,
        result.model,
        result.head,
        result.optimizer,
        result.opt_state,
        extra_arrays={
            "buffer.P": result.buffer.P,
            "buffer.initialized": result.buffer.initialized.astype(np.float64),
        },
        extra_scalars={"buffer.t": float(result.buffer.t)},
    )


def cmd_train(args: argparse.Namespace) -> int:
    interval = args.checkpoint_interval
    if interval < 0:
        raise ConfigError(f"--checkpoint-interval must be >= 0 (0 = final only), got {interval}")
    config: TrainConfig = _from_sources(TrainConfig, args)
    dataset = load_dataset(args.data)
    query = load_dataset(args.query) if args.query else None
    gallery = load_dataset(args.gallery) if args.gallery else None
    if (query is None) != (gallery is None):
        raise ConfigError("--query and --gallery must be given together")
    _ensure_out_dir(args.out)

    def write_logs(log) -> None:
        write_text_atomic(os.path.join(args.out, "train_log.csv"), log.to_csv())
        write_text_atomic(os.path.join(args.out, "train_log.json"), log.to_json())
        write_text_atomic(os.path.join(args.out, "timing.csv"), log.timing_csv())

    def callback(epoch: int, result) -> None:
        write_logs(result.log)  # a run that fails later keeps its finished epochs
        if interval and epoch % interval == 0:
            _save_full_checkpoint(
                os.path.join(args.out, f"checkpoint_epoch_{epoch:04d}.txt"), result
            )

    result = train(dataset, config, query=query, gallery=gallery, epoch_callback=callback)

    _write_json(os.path.join(args.out, "effective_config.json"), dataclasses.asdict(config))
    if not result.log.records:  # no epoch ran, so the callback wrote no logs
        write_logs(result.log)
    _save_full_checkpoint(os.path.join(args.out, "checkpoint_final.txt"), result)
    _write_run_meta(args.out, "train", config.seed)
    last = result.log.records[-1] if result.log.records else None
    if last is not None and last.val_map is not None:
        print(f"trained {config.epochs} epochs; final val mAP {last.val_map:.4f}")
    else:
        print(f"trained {config.epochs} epochs")
    return 0


def _result_to_jsonable(res) -> dict:
    return {
        "map": res.map,
        "cmc": {str(k): v for k, v in res.cmc.items()},
        "n_evaluated": res.n_evaluated,
        "n_skipped": res.n_skipped,
    }


def cmd_eval(args: argparse.Namespace) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    query = load_dataset(args.query)
    gallery = load_dataset(args.gallery)
    res = evaluate(ckpt.model, query, gallery)
    lines = [f"mAP      {res.map:.6f}"]
    for k, v in sorted(res.cmc.items()):
        lines.append(f"rank-{k:<3d} {v:.6f}")
    lines.append(f"queries  {res.n_evaluated} evaluated, {res.n_skipped} skipped")
    print("\n".join(lines))
    if args.out:
        _write_json(args.out, _result_to_jsonable(res))
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    config: TrainConfig = _from_sources(TrainConfig, args)
    dataset = load_dataset(args.data)
    query = load_dataset(args.query)
    gallery = load_dataset(args.gallery)
    result = run_ablation(dataset, config, args.axis, query=query, gallery=gallery,
                          seeds=parse_seeds(args.seeds))

    _ensure_out_dir(args.out)
    _write_json(os.path.join(args.out, "effective_config.json"), dataclasses.asdict(config))
    write_text_atomic(os.path.join(args.out, "table.txt"), result.table_text())
    _write_json(os.path.join(args.out, "table.json"), result.to_jsonable())
    for label, run in result.runs():
        run_dir = os.path.join(args.out, "logs", label.replace("=", "_"), f"seed_{run.seed}")
        _ensure_out_dir(run_dir)
        write_text_atomic(os.path.join(run_dir, "train_log.csv"), run.log.to_csv())
        write_text_atomic(os.path.join(run_dir, "train_log.json"), run.log.to_json())
    _write_run_meta(args.out, "ablate", config.seed)
    print(result.table_text(), end="")
    return 0


def cmd_export_metrics(args: argparse.Namespace) -> int:
    try:
        with open(args.log) as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read log file {args.log}: {e}") from e
    try:
        log = TrainLog.from_json(text)
    except (json.JSONDecodeError, ContractError) as e:
        raise ContractError(f"log file {args.log} is not a valid training log: {e}") from e
    content = log.to_csv() if args.format == "csv" else log.to_json()
    if args.out:
        write_text_atomic(args.out, content)
    else:
        print(content, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosscam",
        description="Cross-camera re-identification from intra-camera labels",
    )
    parser.add_argument("--version", action="version", version=f"crosscam {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic train/query/gallery corpus")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--config", help="JSON file with generator settings")
    _add_dataclass_flags(p_gen, SynthSpec)
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser("train", help="train a model on a dataset file")
    p_train.add_argument("--data", required=True, help="training dataset file")
    p_train.add_argument("--query", help="query dataset for per-epoch validation")
    p_train.add_argument("--gallery", help="gallery dataset for per-epoch validation")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--config", help="JSON file with training settings")
    p_train.add_argument("--checkpoint-interval", type=int, default=0,
                         help="write a checkpoint every N epochs (0 = final only)")
    _add_dataclass_flags(p_train, TrainConfig)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score a checkpoint on query/gallery files")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--query", required=True)
    p_eval.add_argument("--gallery", required=True)
    p_eval.add_argument("--out", help="write the result as JSON here")
    p_eval.set_defaults(func=cmd_eval)

    p_abl = sub.add_parser("ablate", help="run one ablation axis with paired seeds")
    p_abl.add_argument("--data", required=True)
    p_abl.add_argument("--query", required=True)
    p_abl.add_argument("--gallery", required=True)
    p_abl.add_argument("--axis", required=True, choices=ABLATION_AXES)
    p_abl.add_argument("--out", required=True)
    p_abl.add_argument("--config", help="JSON file with base training settings")
    p_abl.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated seed list")
    _add_dataclass_flags(p_abl, TrainConfig)
    p_abl.set_defaults(func=cmd_ablate)

    p_exp = sub.add_parser("export-metrics", help="re-serialize a training log")
    p_exp.add_argument("--log", required=True, help="train_log.json produced by train")
    p_exp.add_argument("--format", required=True, choices=("csv", "json"))
    p_exp.add_argument("--out", help="output file (defaults to stdout)")
    p_exp.set_defaults(func=cmd_export_metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CrosscamError as e:
        message = str(e).replace("\n", " ")
        print(f"error {type(e).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
