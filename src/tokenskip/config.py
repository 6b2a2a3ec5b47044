"""Flat key=value experiment configuration.

The format is plain text, one ``section.key = value`` per line, with ``#``
comments. Arrays are comma-separated. The keys are the fields of
``ModelConfig``, ``TrainConfig``, ``DatasetConfig`` and ``DropSchedule``
(sections model, train, dataset, schedule), the model and train presets, the
stages as schedule.drop_layers and schedule.drop_ratios, and the top-level
seed. An empty value leaves a key unset. These keys determine a run: no
environment variable is read, and there is no dtype mode (a model computes
in its parameters' dtype, float32 as built). Example::

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
import functools
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import data, tokendrop
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

    def __post_init__(self):
        if self.source not in data.SOURCES:
            raise ValueError(f"source must be one of {', '.join(data.SOURCES)}, "
                             f"got {self.source!r}")
        for name in ("train_n", "val_n"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved experiment: model, schedule, training, data."""
    model: ModelConfig
    schedule: DropSchedule
    train: TrainConfig
    dataset: DatasetConfig

    @property
    def seed(self) -> int:
        return self.train.seed


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


def _coerce(key: str, value: str, kind):
    try:
        return kind(value)
    except ValueError as exc:
        raise ConfigError(
            f"{key}: cannot parse {value!r} as {kind.__name__}") from exc


def _csv(key: str, value: str, kind) -> tuple:
    if not value:
        return ()
    return tuple(_coerce(key, part.strip(), kind) for part in value.split(","))


@functools.cache
def _types(cls) -> dict:
    """Field name -> parse type of a config dataclass; Optional[X] parses as X."""
    hints = typing.get_type_hints(cls)
    return {f.name: (typing.get_args(hints[f.name]) or (hints[f.name],))[0]
            for f in dataclasses.fields(cls)}


# Section -> (presets, default); its keys are the fields of the default's type,
# less two set another way: the seed is top-level, and the stages come from
# schedule.drop_layers and schedule.drop_ratios.
_SECTIONS = {
    "model": (MODEL_PRESETS, MODEL_PRESETS["desk"]),
    "train": (TRAIN_PRESETS, TRAIN_PRESETS["desk"]),
    "dataset": ({}, DatasetConfig()),
    "schedule": ({}, DropSchedule()),
}
_NOT_KEYS = {"train.seed", "schedule.stages"}
_KEYS = {section: {name: kind for name, kind in _types(type(default)).items()
                   if f"{section}.{name}" not in _NOT_KEYS}
         for section, (_, default) in _SECTIONS.items()}

KNOWN_KEYS = (
    {"seed", "schedule.drop_layers", "schedule.drop_ratios"}
    | {f"{section}.preset" for section, (presets, _) in _SECTIONS.items()
       if presets}
    | {f"{section}.{name}" for section, types in _KEYS.items()
       for name in types}
)


def _replace(obj, values: dict, types: dict, prefix: str = ""):
    """``obj`` with each set value parsed into its field; "" means unset."""
    changes = {name: _coerce(prefix + name, value, types[name])
               for name, value in values.items() if value}
    try:
        return dataclasses.replace(obj, **changes) if changes else obj
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_section(section: str, items: dict[str, str]):
    """Resolve <section>.preset plus per-field overrides into a dataclass."""
    presets, base = _SECTIONS[section]
    preset = items.get(f"{section}.preset")
    if preset is not None:
        if preset not in presets:
            raise ConfigError(
                f"{section}.preset: unknown preset {preset!r} "
                f"(choose from {sorted(presets)})")
        base = presets[preset]
    types = _KEYS[section]
    return _replace(base, {name: items.get(f"{section}.{name}")
                           for name in types}, types, f"{section}.")


def _stages(items: dict[str, str]) -> tuple:
    layers = _csv("schedule.drop_layers", items.get("schedule.drop_layers", ""), int)
    ratios = _csv("schedule.drop_ratios", items.get("schedule.drop_ratios", ""), float)
    if len(layers) != len(ratios):
        raise ConfigError(
            f"schedule.drop_layers has {len(layers)} entries but "
            f"schedule.drop_ratios has {len(ratios)}")
    return tuple(zip(layers, ratios))


def _check_keys(keys, known=KNOWN_KEYS) -> None:
    for key in keys:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")


def build(items: dict[str, str]) -> ExperimentConfig:
    """Turn a flat item dict into a validated ExperimentConfig."""
    _check_keys(items)
    model = _build_section("model", items)
    train = _replace(_build_section("train", items),
                     {"seed": items.get("seed")}, _types(TrainConfig))
    dataset = _build_section("dataset", items)
    schedule = dataclasses.replace(_build_section("schedule", items),
                                   stages=_stages(items))
    tokendrop.validate(schedule, model)
    return ExperimentConfig(model, schedule, train, dataset)


def sweep_arms(items: dict[str, str]) -> list[tuple[str, ExperimentConfig]]:
    """Expand sweep.arms into named per-arm configs.

    Each arm inherits every shared key and may override any of them via
    ``sweep.<arm>.<key> = value``. Schedule keys are special-cased: naming
    any of them in an arm clears the shared schedule first, so an arm can
    switch mode without dragging along stale stage definitions. An arm's
    name is its output directory, so it must be a plain directory name. Any
    other ``sweep.*`` key is unknown, here as in ``build``.
    """
    names = _csv("sweep.arms", items.get("sweep.arms", ""), str)
    if not names:
        raise ConfigError("sweep requires sweep.arms (comma-separated names)")
    if len(set(names)) != len(names):
        raise ConfigError("sweep.arms contains duplicate names")
    for name in names:
        if name in ("", ".", "..") or "/" in name:
            raise ConfigError(f"sweep.arms: arm name {name!r} is not a plain "
                              f"directory name")
    prefixes = tuple(f"sweep.{name}." for name in names)
    _check_keys((key for key in items if not key.startswith(prefixes)),
                KNOWN_KEYS | {"sweep.arms"})
    arms = []
    for name, prefix in zip(names, prefixes):
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
        return "" if value is None else str(value)

    stages = cfg.schedule.stages
    items = {"schedule.drop_layers": ",".join(str(l) for l, _ in stages),
             "schedule.drop_ratios": ",".join(str(r) for _, r in stages),
             "seed": fmt(cfg.seed)}
    for section, types in _KEYS.items():
        for name in types:
            items[f"{section}.{name}"] = fmt(getattr(getattr(cfg, section), name))
    return items


def write_resolved(cfg: ExperimentConfig, path) -> None:
    lines = [f"{key} = {value}"
             for key, value in sorted(resolved_items(cfg).items())]
    Path(path).write_text("\n".join(lines) + "\n")
