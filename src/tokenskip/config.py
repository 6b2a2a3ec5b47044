"""Flat key=value experiment configuration.

The format is plain text, one ``section.key = value`` per line, with ``#``
comments. Arrays are comma-separated. Sections: model, schedule, train,
dataset, sweep, plus the top-level keys seed and precision. Example::

    model.preset = desk
    schedule.mode = skip
    schedule.drop_layers = 3
    schedule.drop_ratios = 0.55
    schedule.skip_target = 5
    train.epochs = 30
    dataset.source = synthetic
    seed = 0
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import tokendrop
from .tokendrop import DropSchedule
from .trainer import TRAIN_PRESETS, TrainConfig
from .vit import MODEL_PRESETS, ModelConfig


class ConfigError(ValueError):
    """Raised for unparseable or unknown configuration input."""


@dataclass(frozen=True)
class DatasetConfig:
    source: str = "synthetic"
    root: Optional[str] = None
    train_n: int = 4096
    val_n: int = 512


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved experiment: model, schedule, training, data."""
    model: ModelConfig
    schedule: DropSchedule
    train: TrainConfig
    dataset: DatasetConfig
    seed: int = 0
    precision: int = 32

    def validated(self) -> "ExperimentConfig":
        tokendrop.validate(self.schedule, self.model)
        if self.precision not in (32, 64):
            raise ConfigError(f"precision must be 32 or 64, got {self.precision}")
        return self


def parse_text(text: str) -> dict[str, str]:
    """Parse key=value lines into a flat string dict."""
    items: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        items[key.strip()] = value.strip()
    return items


def load_file(path) -> dict[str, str]:
    try:
        return parse_text(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc


def apply_overrides(items: dict[str, str], overrides) -> dict[str, str]:
    """Fold repeatable ``--set key=value`` strings into a parsed item dict."""
    merged = dict(items)
    for entry in overrides or ():
        if "=" not in entry:
            raise ConfigError(f"override {entry!r} is not of the form key=value")
        key, value = entry.split("=", 1)
        merged[key.strip()] = value.strip()
    return merged


_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _coerce(key: str, value: str, kind):
    try:
        if kind is bool:
            if value.lower() not in _BOOL:
                raise ValueError(value)
            return _BOOL[value.lower()]
        return kind(value)
    except ValueError as exc:
        raise ConfigError(
            f"{key}: cannot parse {value!r} as {kind.__name__}") from exc


def _csv(key: str, value: str, kind) -> tuple:
    if not value:
        return ()
    return tuple(_coerce(key, part.strip(), kind) for part in value.split(","))


def _build_section(key_prefix, items, presets, base, fields):
    """Resolve <section>.preset plus per-field overrides into a dataclass."""
    preset = items.get(f"{key_prefix}.preset")
    if preset is not None:
        if preset not in presets:
            raise ConfigError(
                f"{key_prefix}.preset: unknown preset {preset!r} "
                f"(choose from {sorted(presets)})")
        base = presets[preset]
    changes = {}
    for name, kind in fields.items():
        value = items.get(f"{key_prefix}.{name}")
        if value is not None and value != "":
            changes[name] = _coerce(f"{key_prefix}.{name}", value, kind)
    try:
        return dataclasses.replace(base, **changes) if changes else base
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


_MODEL_FIELDS = {"depth": int, "heads": int, "embed_dim": int,
                 "ffn_ratio": int, "patch_size": int, "image_size": int,
                 "num_classes": int, "channels": int}
_TRAIN_FIELDS = {"batch_size": int, "epochs": int, "weight_decay": float,
                 "learning_rate": float, "warmup_lr": float,
                 "lr_warmup_epochs": int, "lr_schedule": str}
_SCHEDULE_FIELDS = {"mode": str, "drop_layers": "csv_int",
                    "drop_ratios": "csv_float", "skip_target": int,
                    "warmup_epochs": int, "drop_after_ffn": bool}
_DATASET_FIELDS = {"source": str, "root": str, "train_n": int, "val_n": int}

KNOWN_KEYS = (
    {"seed", "precision", "model.preset", "train.preset", "sweep.arms"}
    | {f"model.{k}" for k in _MODEL_FIELDS}
    | {f"train.{k}" for k in _TRAIN_FIELDS}
    | {f"schedule.{k}" for k in _SCHEDULE_FIELDS}
    | {f"dataset.{k}" for k in _DATASET_FIELDS}
)


def _build_schedule(items: dict[str, str]) -> DropSchedule:
    mode = items.get("schedule.mode", tokendrop.MODE_NONE)
    layers = _csv("schedule.drop_layers", items.get("schedule.drop_layers", ""), int)
    ratios = _csv("schedule.drop_ratios", items.get("schedule.drop_ratios", ""), float)
    if len(layers) != len(ratios):
        raise ConfigError(
            f"schedule.drop_layers has {len(layers)} entries but "
            f"schedule.drop_ratios has {len(ratios)}")
    skip_target = items.get("schedule.skip_target")
    return DropSchedule(
        stages=tuple(zip(layers, ratios)),
        skip_target=None if skip_target in (None, "") else
        _coerce("schedule.skip_target", skip_target, int),
        mode=mode,
        warmup_epochs=_coerce("schedule.warmup_epochs",
                              items.get("schedule.warmup_epochs", "0"), int),
        drop_after_ffn=_coerce("schedule.drop_after_ffn",
                               items.get("schedule.drop_after_ffn", "false"),
                               bool),
    )


def _check_keys(items: dict[str, str]) -> None:
    arms = _csv("sweep.arms", items.get("sweep.arms", ""), str)
    for key in items:
        if key in KNOWN_KEYS:
            continue
        if any(key.startswith(f"sweep.{arm}.") for arm in arms):
            continue
        raise ConfigError(f"unknown config key {key!r}")


def build(items: dict[str, str]) -> ExperimentConfig:
    """Turn a flat item dict into a validated ExperimentConfig."""
    _check_keys(items)
    model = _build_section("model", items, MODEL_PRESETS,
                           MODEL_PRESETS["desk"], _MODEL_FIELDS)
    train = _build_section("train", items, TRAIN_PRESETS,
                           TRAIN_PRESETS["desk"], _TRAIN_FIELDS)
    dataset = _build_section("dataset", items, {}, DatasetConfig(),
                             _DATASET_FIELDS)
    seed = _coerce("seed", items.get("seed", "0"), int)
    precision = _coerce("precision", items.get("precision", "32"), int)
    train = dataclasses.replace(train, seed=seed)
    return ExperimentConfig(model=model, schedule=_build_schedule(items),
                            train=train, dataset=dataset, seed=seed,
                            precision=precision).validated()


def sweep_arms(items: dict[str, str]) -> list[tuple[str, ExperimentConfig]]:
    """Expand sweep.arms into named per-arm configs.

    Each arm inherits every shared key and may override any of them via
    ``sweep.<arm>.<key> = value``. Schedule keys are special-cased: naming
    any of them in an arm clears the shared schedule first, so an arm can
    switch mode without dragging along stale stage definitions.
    """
    names = _csv("sweep.arms", items.get("sweep.arms", ""), str)
    if not names:
        raise ConfigError("sweep requires sweep.arms (comma-separated names)")
    if len(set(names)) != len(names):
        raise ConfigError("sweep.arms contains duplicate names")
    arms = []
    for name in names:
        prefix = f"sweep.{name}."
        overrides = {key[len(prefix):]: value
                     for key, value in items.items()
                     if key.startswith(prefix)}
        shared = {key: value for key, value in items.items()
                  if not key.startswith("sweep.")}
        if any(key.startswith("schedule.") for key in overrides):
            shared = {key: value for key, value in shared.items()
                      if not key.startswith("schedule.")}
        shared.update(overrides)
        arms.append((name, build(shared)))
    return arms


def resolved_items(cfg: ExperimentConfig) -> dict[str, str]:
    """Flatten a config back into the textual key space, fully expanded."""

    def fmt(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return "" if value is None else str(value)

    items = {}
    for name in _MODEL_FIELDS:
        items[f"model.{name}"] = fmt(getattr(cfg.model, name))
    for name in _TRAIN_FIELDS:
        items[f"train.{name}"] = fmt(getattr(cfg.train, name))
    for name in _DATASET_FIELDS:
        items[f"dataset.{name}"] = fmt(getattr(cfg.dataset, name))
    sched = cfg.schedule
    items["schedule.mode"] = sched.mode
    items["schedule.drop_layers"] = ",".join(str(l) for l, _ in sched.stages)
    items["schedule.drop_ratios"] = ",".join(str(r) for _, r in sched.stages)
    items["schedule.skip_target"] = fmt(sched.skip_target)
    items["schedule.warmup_epochs"] = fmt(sched.warmup_epochs)
    items["schedule.drop_after_ffn"] = fmt(sched.drop_after_ffn)
    items["seed"] = fmt(cfg.seed)
    items["precision"] = fmt(cfg.precision)
    return items


def write_resolved(cfg: ExperimentConfig, path) -> None:
    lines = [f"{key} = {value}"
             for key, value in sorted(resolved_items(cfg).items())]
    Path(path).write_text("\n".join(lines) + "\n")
