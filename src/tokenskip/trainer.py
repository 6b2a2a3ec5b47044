"""Training, evaluation and throughput benchmarking for the ViT lab."""

from __future__ import annotations

import ctypes
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import checkpoint, tensor as T, tokendrop
from .data import Split
from .optim import AdamW, lr_at
from .tokendrop import DropSchedule
from .vit import ViT

METRICS_FILE = "metrics.jsonl"
TIMING_FILE = "timing.jsonl"

# glibc mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    epochs: int = 10
    weight_decay: float = 0.05
    learning_rate: float = 1e-3
    warmup_lr: float = 1e-6
    lr_warmup_epochs: int = 1
    lr_schedule: str = "cosine"  # cosine | constant
    seed: int = 0
    precision: int = 32

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("learning_rate", "warmup_lr"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.lr_schedule not in ("cosine", "constant"):
            raise ValueError(f"unknown lr_schedule {self.lr_schedule!r}")


# The paper's full-scale recipe less its mixup 0.1; not a desk-scale default.
TRAIN_PRESETS = {
    "paper-vit-small": TrainConfig(batch_size=288, epochs=100, weight_decay=0.5,
                                   learning_rate=1e-3, warmup_lr=1e-6,
                                   lr_warmup_epochs=5),
    "desk": TrainConfig(),
}


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_top1: float
    val_top1: Optional[float]
    samples_per_sec: float
    attn_tokens: list
    kept_patches: dict
    minor_faults: int

    def metrics_dict(self) -> dict:
        # Deterministic fields only; timing lives in its own record.
        return {
            "epoch": self.epoch,
            "train_loss": self.train_loss,
            "train_top1": self.train_top1,
            "val_top1": self.val_top1,
            "attn_tokens": self.attn_tokens,
            "kept_patches": {str(k): v for k, v in sorted(self.kept_patches.items())},
        }


@dataclass
class RunMetrics:
    epochs: list = field(default_factory=list)  # EpochRecord per epoch
    step_losses: list = field(default_factory=list)

    @property
    def final_val_top1(self) -> Optional[float]:
        return self.epochs[-1].val_top1 if self.epochs else None

    @property
    def final_train_top1(self) -> float:
        return self.epochs[-1].train_top1


def _keep_heap() -> None:
    """Keep freed step memory in the process instead of returning it.

    A process-wide allocator setting, made by the step loops (train,
    evaluate, benchmark) on entry. Without it glibc serves each large array
    from a fresh mmap or trims the heap top once a step's graph is freed,
    and the next step faults the same pages back in. Arrays up to 32 MiB
    now come from the heap and the heap is trimmed only above 1 GiB free.
    Both values must be set: setting either alone freezes glibc's dynamic
    mmap threshold at 128 KiB. So the trim threshold is set only once the
    mmap threshold is accepted (a 32-bit glibc rejects 32 MiB and keeps its
    default behaviour). A no-op where the C library cannot be loaded or has
    no mallopt; setting it again is harmless.
    """
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):
        return
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1:
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def _minor_faults() -> int:
    """The process's minor page faults so far; 0 where getrusage is missing."""
    try:
        import resource
    except ImportError:
        return 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _batches(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n - batch_size + 1, batch_size):
        yield order[start:start + batch_size]


def train(model: ViT, schedule: DropSchedule, cfg: TrainConfig,
          train_split: Split, val_split: Optional[Split] = None,
          out_dir=None, max_steps: Optional[int] = None,
          stop_at_train_top1: Optional[float] = None) -> RunMetrics:
    """Deterministic training loop with epoch-gated token dropping.

    The current epoch is passed into the forward pass so drop warm-up is
    epoch-driven. Timing and the minor-fault count exclude validation and
    checkpointing.
    """
    tokendrop.validate(schedule, model.config)
    _keep_heap()
    opt = AdamW(model.params, cfg.learning_rate, cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    steps_per_epoch = max(1, len(train_split) // cfg.batch_size)
    metrics = RunMetrics()
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / METRICS_FILE).write_text("")
        (out_dir / TIMING_FILE).write_text("")

    global_step = 0
    done = False
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_split))
        losses = []
        correct = 0
        seen = 0
        epoch_diag = None
        elapsed = 0.0
        faults = _minor_faults()
        for step, idx in enumerate(_batches(len(train_split), cfg.batch_size,
                                            order)):
            images = train_split.images[idx]
            labels = train_split.labels[idx]
            t0 = time.perf_counter()
            logits, diag = model.forward(images, schedule, epoch=epoch)
            loss = T.cross_entropy(logits, labels)
            if not np.isfinite(loss.data):
                raise RuntimeError(f"non-finite loss {float(loss.data)} at "
                                   f"epoch {epoch} step {step}")
            opt.zero_grad()
            loss.backward()
            if cfg.lr_schedule == "constant":
                lr = cfg.learning_rate
            else:
                lr = lr_at(epoch, step, steps_per_epoch,
                           learning_rate=cfg.learning_rate,
                           warmup_lr=cfg.warmup_lr,
                           lr_warmup_epochs=cfg.lr_warmup_epochs,
                           epochs=cfg.epochs)
            opt.step(lr)
            elapsed += time.perf_counter() - t0

            losses.append(float(loss.data))
            metrics.step_losses.append(float(loss.data))
            correct += int((logits.data.argmax(axis=1) == labels).sum())
            seen += len(idx)
            if epoch_diag is None:
                epoch_diag = diag
            elif (diag.attn_tokens != epoch_diag.attn_tokens
                  or diag.kept_patches != epoch_diag.kept_patches):
                raise RuntimeError(
                    f"token counts changed mid-epoch at epoch {epoch} step {step}"
                )
            global_step += 1
            if max_steps is not None and global_step >= max_steps:
                done = True
                break
        faults = _minor_faults() - faults

        train_top1 = 100.0 * correct / max(seen, 1)
        val_top1 = None
        if val_split is not None:
            val_top1 = evaluate(model, val_split, schedule, epoch=epoch,
                                batch_size=cfg.batch_size)
        record = EpochRecord(
            epoch=epoch,
            train_loss=float(np.mean(losses)) if losses else float("nan"),
            train_top1=train_top1,
            val_top1=val_top1,
            samples_per_sec=seen / elapsed if elapsed > 0 else 0.0,
            attn_tokens=list(epoch_diag.attn_tokens) if epoch_diag else [],
            kept_patches=dict(epoch_diag.kept_patches) if epoch_diag else {},
            minor_faults=faults,
        )
        metrics.epochs.append(record)
        if out_dir is not None:
            with open(out_dir / METRICS_FILE, "a") as fh:
                fh.write(json.dumps(record.metrics_dict(), sort_keys=True) + "\n")
            with open(out_dir / TIMING_FILE, "a") as fh:
                fh.write(json.dumps({"epoch": epoch,
                                     "samples_per_sec": record.samples_per_sec,
                                     "minor_faults": record.minor_faults}) + "\n")
        if stop_at_train_top1 is not None and train_top1 >= stop_at_train_top1:
            done = True
        if done:
            break

    if out_dir is not None:
        checkpoint.save(model, out_dir / "model.ckpt")
    return metrics


def evaluate(model: ViT, split: Split, schedule: Optional[DropSchedule] = None,
             epoch: int = 10 ** 9, batch_size: int = 64) -> float:
    """Top-1 accuracy (%) over a split.

    By default the drop schedule stays active (epoch past warm-up), matching
    the training-time topology; pass schedule=None for plain evaluation.
    """
    if schedule is None:
        schedule = DropSchedule.none()
    _keep_heap()
    correct = 0
    n = len(split)
    with T.no_grad():
        for start in range(0, n, batch_size):
            images = split.images[start:start + batch_size]
            labels = split.labels[start:start + batch_size]
            logits, _ = model.forward(images, schedule, epoch=epoch)
            correct += int((logits.data.argmax(axis=1) == labels).sum())
    return 100.0 * correct / n


def benchmark(model: ViT, schedule: DropSchedule, cfg: TrainConfig,
              batches: int = 10, discard: int = 3,
              data: Optional[Split] = None) -> float:
    """Median samples/sec over full train steps (forward + backward + update).

    The first ``discard`` steps warm caches and are excluded.
    """
    tokendrop.validate(schedule, model.config)
    _keep_heap()
    c = model.config
    if data is None:
        rng = np.random.default_rng(cfg.seed)
        images = rng.normal(size=(cfg.batch_size, c.channels, c.image_size,
                                  c.image_size)).astype(np.float32)
        labels = rng.integers(0, c.num_classes, size=cfg.batch_size)
    else:
        images = data.images[:cfg.batch_size]
        labels = data.labels[:cfg.batch_size]
    opt = AdamW(model.params, cfg.learning_rate, weight_decay=0.0)
    times = []
    for i in range(discard + batches):
        t0 = time.perf_counter()
        logits, _ = model.forward(images, schedule, epoch=10 ** 9)
        loss = T.cross_entropy(logits, labels)
        opt.zero_grad()
        loss.backward()
        opt.step(0.0)  # keep weights fixed so every timed step sees same model
        dt = time.perf_counter() - t0
        if i >= discard:
            times.append(dt)
    return cfg.batch_size / float(np.median(times))
