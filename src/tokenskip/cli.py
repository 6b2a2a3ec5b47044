"""Command line front end: train, eval, bench, flops, sweep, report.

Exit codes: 0 success, 1 configuration or validation failure, 2 runtime
failure (missing files, numeric breakdown). All compute counts are MACs
(multiply-accumulates), stated in every report header.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import checkpoint, config as cfgmod, data, flops, tensor as T, trainer
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

    def common(p, needs_out=False):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--out", required=needs_out, help="output directory")
        p.add_argument("--seed", type=int, help="override seed")
        p.add_argument("--precision", type=int, choices=(32, 64),
                       help="float width for all tensors")

    common(sub.add_parser("train", help="train a model, write metrics"),
           needs_out=True)
    p_eval = sub.add_parser("eval", help="top-1 accuracy of a checkpoint")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    common(sub.add_parser("bench", help="samples/sec for a config"))
    common(sub.add_parser("flops", help="analytic MAC cost report"))
    common(sub.add_parser("sweep", help="run schedule arms and tabulate"),
           needs_out=True)
    p_rep = sub.add_parser("report", help="comparison table from result files")
    p_rep.add_argument("results", nargs="+",
                       help="result.json files or run directories")
    return parser


def _items(args) -> dict:
    """Config items from --config, then --set, --seed and --precision."""
    items = cfgmod.load_file(args.config) if args.config else {}
    items = cfgmod.apply_overrides(items, args.overrides)
    if args.seed is not None:
        items["seed"] = str(args.seed)
    if args.precision is not None:
        items["precision"] = str(args.precision)
    return items


def _resolve(args) -> ExperimentConfig:
    return cfgmod.build(_items(args))


def _prepare_out(cfg: ExperimentConfig, out) -> Path:
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    cfgmod.write_resolved(cfg, out / RESOLVED_CONFIG)
    return out


def _load_data(cfg: ExperimentConfig):
    return data.load_dataset(
        cfg.dataset.source, cfg.dataset.root, seed=cfg.seed,
        synthetic_n=cfg.dataset.train_n, synthetic_val_n=cfg.dataset.val_n,
        classes=cfg.model.num_classes, image_size=cfg.model.image_size)


def _schedule_label(schedule) -> str:
    if not schedule.stages or schedule.mode == MODE_NONE:
        return "baseline"
    stages = "+".join(f"{int(round(r * 100))}%@{l}" for l, r in schedule.stages)
    if schedule.mode == MODE_FUSE:
        return f"fuse {stages}"
    return f"skip {stages}->{schedule.skip_target}"


def _run_experiment(cfg: ExperimentConfig, out: Path) -> dict:
    """Train one configuration, then benchmark it; returns a result row."""
    with T.precision(cfg.precision):
        train_split, val_split = _load_data(cfg)
        model = ViT(cfg.model, seed=cfg.seed)
        metrics = trainer.train(model, cfg.schedule, cfg.train, train_split,
                                val_split, out_dir=out)
        rate = trainer.benchmark(model, cfg.schedule, cfg.train)
    cost = flops.estimate_flops(cfg.model, cfg.schedule)
    row = {
        "schedule": _schedule_label(cfg.schedule),
        "drop_layers": [l for l, _ in cfg.schedule.stages],
        "drop_ratios": [r for _, r in cfg.schedule.stages],
        "skip_target": cfg.schedule.skip_target,
        "mode": cfg.schedule.mode,
        "samples_per_sec": rate,
        "top1": metrics.final_val_top1,
        "train_top1": metrics.final_train_top1,
        "predicted_mac_saving": cost.saving_fraction,
    }
    (out / RESULT_FILE).write_text(json.dumps(row, indent=2) + "\n")
    return row


def cmd_train(args) -> int:
    cfg = _resolve(args)
    out = _prepare_out(cfg, args.out)
    row = _run_experiment(cfg, out)
    print(f"final val top-1: {row['top1']:.2f}%  "
          f"({row['samples_per_sec']:.1f} samples/sec)")
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
    with T.precision(cfg.precision):
        model = checkpoint.load(args.checkpoint)
        _check_geometry(model, cfg)
        _, val_split = _load_data(cfg)
        top1 = trainer.evaluate(model, val_split, cfg.schedule,
                                batch_size=cfg.train.batch_size)
    if args.out:
        _prepare_out(cfg, args.out)
    print(f"top-1: {top1:.2f}%")
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _resolve(args)
    with T.precision(cfg.precision):
        model = ViT(cfg.model, seed=cfg.seed)
        rate = trainer.benchmark(model, cfg.schedule, cfg.train)
    if args.out:
        out = _prepare_out(cfg, args.out)
        (out / RESULT_FILE).write_text(json.dumps(
            {"schedule": _schedule_label(cfg.schedule),
             "samples_per_sec": rate}, indent=2) + "\n")
    print(f"{rate:.1f} samples/sec ({_schedule_label(cfg.schedule)})")
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
    if args.out:
        _prepare_out(cfg, args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    arms = cfgmod.sweep_arms(_items(args))
    out = Path(args.out)
    rows = []
    for name, cfg in arms:
        arm_out = _prepare_out(cfg, out / name)
        print(f"[{name}] {_schedule_label(cfg.schedule)} ...", flush=True)
        row = _run_experiment(cfg, arm_out)
        row["arm"] = name
        rows.append(row)
    with open(out / "sweep.jsonl", "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    print(format_report(rows))
    return EXIT_OK


def _load_result_rows(paths) -> list:
    rows = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            path = path / RESULT_FILE
        if not path.exists():
            raise FileNotFoundError(f"no result file at {path}")
        text = path.read_text()
        if path.suffix == ".jsonl":
            rows.extend(json.loads(line) for line in text.splitlines() if line)
        else:
            rows.append(json.loads(text))
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
    base = next((r for r in rows if r.get("mode", MODE_NONE) == MODE_NONE),
                None)
    if base is None:
        raise ValueError("no baseline row (schedule mode none) among results")
    header = ["schedule", "samples/sec", "top-1(%)", "MAC saving"]
    table = [header]
    for row in rows:
        top1 = row.get("top1")
        table.append([
            row["schedule"],
            _with_delta(row["samples_per_sec"], base["samples_per_sec"],
                        0, percent=True),
            "-" if top1 is None else _with_delta(top1, base["top1"], 2,
                                                 percent=False),
            f"{row.get('predicted_mac_saving', 0.0):.4f}",
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
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, RuntimeError, FloatingPointError,
            NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
