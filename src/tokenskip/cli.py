"""Command line front end: train, eval, bench, flops, sweep, report.

train and sweep write their runs under --out DIR, and bench writes its
result row there if given --out; eval (of --checkpoint FILE) and flops only
print.

Exit codes: 0 success, 1 configuration or validation failure, 2 runtime
failure (missing files, numeric breakdown). All compute counts are MACs
(multiply-accumulates), stated in every report header.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import checkpoint, config as cfgmod, data, flops, trainer
from .config import ConfigError, ExperimentConfig
from .tokendrop import MODE_FUSE, MODE_NONE
from .vit import ViT

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

RESOLVED_CONFIG = "resolved_config.txt"
RESULT_FILE = "result.json"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokenskip",
        description="Token-dropping ViT laboratory (all compute in MACs)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=None):
        """The config options, and --out unless ``out`` is None; ``out`` says
        whether --out is required."""
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
        if out is not None:
            p.add_argument("--out", required=out, help="output directory")

    common(sub.add_parser("train", help="train a model, write metrics"),
           out=True)
    p_eval = sub.add_parser("eval", help="top-1 accuracy of a checkpoint")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    common(sub.add_parser("bench", help="samples/sec for a config"), out=False)
    common(sub.add_parser("flops", help="analytic MAC cost report"))
    common(sub.add_parser("sweep", help="run schedule arms and tabulate"),
           out=True)
    p_rep = sub.add_parser("report", help="comparison table from result files")
    p_rep.add_argument("results", nargs="+",
                       help="result.json files or run directories")
    return parser


def _items(args) -> dict:
    """Config items from --config, then --set (seed included)."""
    items = cfgmod.load_file(args.config) if args.config else {}
    return cfgmod.apply_overrides(items, args.overrides)


def _resolve(args) -> ExperimentConfig:
    return cfgmod.build(_items(args))


def _prepare_out(cfg: ExperimentConfig, out) -> Path:
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    cfgmod.write_resolved(cfg, out / RESOLVED_CONFIG)
    return out


def _load_data(cfg: ExperimentConfig, load=data.load_dataset):
    return load(
        cfg.dataset.source, cfg.dataset.root, seed=cfg.seed,
        synthetic_n=cfg.dataset.train_n, synthetic_val_n=cfg.dataset.val_n,
        classes=cfg.model.num_classes, image_size=cfg.model.image_size)


def _val_split(cfg: ExperimentConfig) -> data.Split:
    """The val split ``_load_data`` gives, bit for bit, without normalizing
    the train split: eval reads only its channel statistics."""
    train, val = _load_data(cfg, data._raw_splits)
    return data.normalize(val, data.channel_stats(train))


def _schedule_label(schedule) -> str:
    if schedule.mode == MODE_NONE:
        return "baseline"
    stages = "+".join(f"{int(round(r * 100))}%@{l}" for l, r in schedule.stages)
    if schedule.mode == MODE_FUSE:
        return f"fuse {stages}"
    return f"skip {stages}->{schedule.skip_target}"


def _result_row(cfg: ExperimentConfig, speed: trainer.Throughput,
                metrics: trainer.RunMetrics | None = None) -> dict:
    """The result row of train, sweep and bench; bench has no top-1."""
    return {
        "schedule": _schedule_label(cfg.schedule),
        "drop_layers": [l for l, _ in cfg.schedule.stages],
        "drop_ratios": [r for _, r in cfg.schedule.stages],
        "skip_target": cfg.schedule.skip_target,
        "mode": cfg.schedule.mode,
        "samples_per_sec": speed.samples_per_sec,
        "measured_saving": speed.saving,
        "top1": None if metrics is None else metrics.final_val_top1,
        "train_top1": None if metrics is None else metrics.final_train_top1,
        "predicted_mac_saving":
            flops.estimate_flops(cfg.model, cfg.schedule).saving_fraction,
    }


def _run_experiment(cfg: ExperimentConfig, out) -> dict:
    """Train one configuration, then benchmark it; returns a result row.

    A run that cannot start fails before ``out`` is made.
    """
    train_split, val_split = _load_data(cfg)
    model = ViT(cfg.model, seed=cfg.seed)
    trainer.check_inputs(model, cfg.schedule, cfg.train, train_split,
                         val_split)
    out = _prepare_out(cfg, out)
    metrics = trainer.train(model, cfg.schedule, cfg.train, train_split,
                            val_split, out_dir=out)
    speed = trainer.benchmark(model, cfg.schedule, cfg.train)
    row = _result_row(cfg, speed, metrics)
    (out / RESULT_FILE).write_text(json.dumps(row, indent=2) + "\n")
    return row


def cmd_train(args) -> int:
    row = _run_experiment(_resolve(args), args.out)
    print(f"final val top-1: {row['top1']:.2f}%  "
          f"({row['samples_per_sec']:.1f} samples/sec, measured saving "
          f"{row['measured_saving']:.3f})")
    return EXIT_OK


def _check_geometry(model: ViT, cfg: ExperimentConfig) -> None:
    """Reject a checkpoint whose model config differs from model.*."""
    wanted = dataclasses.asdict(cfg.model)
    differing = [f"model.{key}: checkpoint {value}, configured {wanted[key]}"
                 for key, value in dataclasses.asdict(model.config).items()
                 if value != wanted[key]]
    if differing:
        raise ConfigError("checkpoint does not match the configured model: "
                          + "; ".join(differing))


def cmd_eval(args) -> int:
    cfg = _resolve(args)
    model = checkpoint.load(args.checkpoint)
    _check_geometry(model, cfg)
    top1 = trainer.evaluate(model, _val_split(cfg), cfg.schedule,
                            batch_size=cfg.train.batch_size)
    print(f"top-1: {top1:.2f}%")
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _resolve(args)
    model = ViT(cfg.model, seed=cfg.seed)
    speed = trainer.benchmark(model, cfg.schedule, cfg.train)
    row = _result_row(cfg, speed)
    if args.out:
        out = _prepare_out(cfg, args.out)
        (out / RESULT_FILE).write_text(json.dumps(row, indent=2) + "\n")
    print(f"{row['samples_per_sec']:.1f} samples/sec ({row['schedule']}); "
          f"saving vs dense: measured {row['measured_saving']:.3f}, "
          f"predicted MAC {row['predicted_mac_saving']:.3f}")
    return EXIT_OK


def cmd_flops(args) -> int:
    cfg = _resolve(args)
    report = flops.estimate_flops(cfg.model, cfg.schedule)
    print("cost model in MACs (multiply-accumulates)")
    print(f"schedule: {_schedule_label(cfg.schedule)}")
    print(f"patch embed: {report.patch_embed_macs:,}")
    for layer in report.layers:
        extra = f"  fuse {layer.extra_macs:,}" if layer.extra_macs else ""
        print(f"layer {layer.layer}: attention {layer.attention_macs:,}  "
              f"ffn {layer.ffn_macs:,}{extra}")
    print(f"head: {report.head_macs:,}")
    print(f"total: {report.schedule_total:,}  "
          f"baseline: {report.baseline_total:,}  "
          f"saving: {report.saving_fraction:.4f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    arms = cfgmod.sweep_arms(_items(args))
    out = Path(args.out)
    rows = []
    for name, cfg in arms:
        print(f"[{name}] {_schedule_label(cfg.schedule)} ...", flush=True)
        row = _run_experiment(cfg, out / name)
        row["arm"] = name
        rows.append(row)
    with open(out / "sweep.jsonl", "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    print(format_report(rows))
    return EXIT_OK


_OPTIONAL_NUMBERS = ("top1", "predicted_mac_saving", "measured_saving")


def _is_number(value) -> bool:
    return (math.isfinite(value) if isinstance(value, float)  # not NaN or inf
            else isinstance(value, int) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)  # converts to a float


def _is_result_row(row) -> bool:
    return (isinstance(row, dict) and isinstance(row.get("schedule"), str)
            and _is_number(row.get("samples_per_sec"))
            and row["samples_per_sec"] > 0
            and all(row.get(key) is None or _is_number(row[key])
                    for key in _OPTIONAL_NUMBERS))


def _load_result_rows(paths) -> list:
    rows = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            path = path / RESULT_FILE
        if not path.exists():
            raise FileNotFoundError(f"no result file at {path}")
        text = path.read_text()
        lines = ([line for line in text.splitlines() if line]
                 if path.suffix == ".jsonl" else [text])
        try:
            file_rows = [json.loads(line) for line in lines]
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        for row in file_rows:
            if not _is_result_row(row):
                raise ValueError(
                    f"{path}: a result row is a JSON object with a string "
                    f"schedule, a positive samples_per_sec and a number or "
                    f"null for {', '.join(_OPTIONAL_NUMBERS)}, every number "
                    f"finite, got {row!r}")
            rows.append(row)
    return rows


def _with_delta(value: float, baseline: float, decimals: int,
                percent: bool) -> str:
    if percent:
        delta = (value / baseline - 1.0) * 100.0
        suffix = f"({delta:+.2f}%)"
    else:
        suffix = f"({value - baseline:+.2f})"
    return f"{value:,.{decimals}f}{suffix}"


def format_report(rows: list) -> str:
    """Comparison table: throughput and top-1 with deltas vs the baseline row."""
    base = next((r for r in rows if r.get("mode") == MODE_NONE), None)
    if base is None:
        raise ValueError("no baseline row (schedule mode none) among results")
    header = ["schedule", "samples/sec", "top-1(%)", "MAC saving",
              "measured saving"]
    table = [header]
    for row in rows:
        top1 = row.get("top1")
        predicted = row.get("predicted_mac_saving")
        measured = row.get("measured_saving")
        table.append([
            row["schedule"],
            _with_delta(row["samples_per_sec"], base["samples_per_sec"],
                        0, percent=True),
            "-" if top1 is None or base.get("top1") is None
            else _with_delta(top1, base["top1"], 2, percent=False),
            "-" if predicted is None else f"{predicted:.4f}",
            "-" if measured is None else f"{measured:.4f}",
        ])
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = ["compute unit: MACs (multiply-accumulates)"]
    for i, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def cmd_report(args) -> int:
    print(format_report(_load_result_rows(args.results)))
    return EXIT_OK


_COMMANDS = {"train": cmd_train, "eval": cmd_eval, "bench": cmd_bench,
             "flops": cmd_flops, "sweep": cmd_sweep, "report": cmd_report}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its message: a usage error is a configuration
        # error (argparse's own code is 2), --help a success.
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
