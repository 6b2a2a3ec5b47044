"""Training, evaluation and throughput benchmarking for the ViT lab."""

from __future__ import annotations

import ctypes
import functools
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import checkpoint, tensor as T, tokendrop, vit
from .data import CHANNELS, Split
from .optim import AdamW, lr_at
from .tokendrop import PAST_WARMUP, DropSchedule
from .vit import ViT

METRICS_FILE = "metrics.jsonl"
TIMING_FILE = "timing.jsonl"

# glibc mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8

_BENCHMARK_PAIRS = 14  # timed dense/schedule pairs

_SHARD_SAMPLES = 16  # shards start at multiples of this (see _shards)
# OpenBLAS's small-matrix GEMM kernels (SkylakeX sgemm, for one) take
# products of up to this many multiply-adds (see _shards).
_SMALL_GEMM_MACS = 100 ** 3

# (get, set) thread-count symbols of the OpenBLAS builds numpy ships with.
_OPENBLAS_THREAD_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    epochs: int = 10
    weight_decay: float = 0.05
    learning_rate: float = 1e-3
    warmup_lr: float = 1e-6
    lr_warmup_epochs: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "warmup_lr", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name, low in (("batch_size", 1), ("epochs", 1),
                          ("lr_warmup_epochs", 0), ("weight_decay", 0),
                          ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("learning_rate", "warmup_lr"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


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
    default behaviour). Every thread also allocates from the one main
    arena: a shard's thread would otherwise take an arena of its own, which
    frees whole heaps as its graph goes and holds memory the other shards
    cannot reuse (desk train-dense at batch 64 on 2 CPUs: thousands of page
    faults a step, and about 12 MB more peak RSS). A no-op where the C
    library cannot be loaded or has no mallopt; setting it again is
    harmless.
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
    mallopt(_M_ARENA_MAX, 1)


@functools.cache
def _openblas_threads():
    """The loaded OpenBLAS's (get, set) thread-count functions, or None.

    Found by scanning the process's mapped libraries, so None wherever
    ``/proc/self/maps`` is missing, no OpenBLAS is loaded or it exports
    none of the known symbol pairs.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                return get, set_
    return None


def _cpus() -> int:
    return len(os.sched_getaffinity(0))


# The functions a shard runs, as this package defines them. Wrappers put in
# their place from outside (a profiler's, say) need not be safe to call from
# several threads at once, so a batch then runs whole.
_SHARD_CODE = {(owner, name): fn
               for owner in (ViT, vit, T, T.Tensor, T.ShardSums, tokendrop)
               for name, fn in vars(owner).items() if callable(fn)}


def _own_code() -> bool:
    return all(vars(owner).get(name) is fn
               for (owner, name), fn in _SHARD_CODE.items())


@contextmanager
def _shards(samples: int, row_macs: int):
    """The row slices a batch of ``samples`` runs as: contiguous shards run
    at once, at most one per CPU (``_each``), with OpenBLAS held at one
    thread until the block exits.

    Each shard starts at a multiple of _SHARD_SAMPLES samples, so at a
    multiple of 16 rows of every product; all but the last hold a multiple
    of it, the last the rest. OpenBLAS computes a product's rows in blocks
    of its kernel's unroll and rounds a partial last block differently.
    Wherever the unroll divides 16, every row then lies in the same kind of
    block as in the whole batch, and each row's results are the whole
    batch's bit for bit. Unaligned shards need not be: 13-sample shards
    change a 7-class head's logits, and a 1-sample shard takes the
    matrix-vector path. Nor need products of up to _SMALL_GEMM_MACS
    multiply-adds, which OpenBLAS may give a small-matrix kernel: on a
    SkylakeX core, 80 rows of (rows, 32) @ (32, 8)ᵀ differ from the same
    rows of a 160-row product, while no aligned row split of a larger
    product has been seen to. So, with ``row_macs`` the multiply-adds per
    sample of the smallest product whose rows the shards split
    (``_row_macs``), the batch runs whole unless that product of every shard
    is above the bound.

    A batch below two aligned shards, or one run without OpenBLAS thread
    controls or with a function of the step's path replaced from outside
    (``_own_code``), also runs whole: one slice, with the thread count left
    alone. One BLAS thread per call keeps concurrent calls from queueing
    for OpenBLAS's one shared thread pool.
    """
    units = samples // _SHARD_SAMPLES
    controls = _openblas_threads() if _own_code() else None
    k = min(_cpus(), units) if controls is not None else 1
    bounds = [_SHARD_SAMPLES * (units * i // k) for i in range(1, k)]
    parts = [slice(lo, hi) for lo, hi in zip([0] + bounds, bounds + [samples])]
    smallest = min(part.stop - part.start for part in parts)
    if k <= 1 or smallest * row_macs <= _SMALL_GEMM_MACS:
        yield [slice(0, samples)]
        return
    get, set_ = controls
    saved = get()
    set_(1)
    try:
        yield parts
    finally:
        set_(saved)


def _row_macs(model: ViT, schedule: DropSchedule, epoch: int) -> int:
    """Multiply-adds per sample of the smallest product whose rows a batch's
    shards split: the patch projection, or a weight product at the layer
    with the fewest live tokens. Attention's products are per sample, and
    the head runs on the whole batch (``_forward``)."""
    c = model.config
    d = c.embed_dim
    fewest = min(min(p.attn_tokens, p.ffn_tokens)
                 for p in tokendrop.plan(schedule, c, epoch))
    return min(c.num_patches * CHANNELS * c.patch_size ** 2, fewest * d) * d


def _each(fn, items: list) -> list:
    """``fn`` of every item at once, the calling thread taking the first and
    a thread of its own each of the rest (a shard's backward waits for the
    others' rows, so none may queue); once all have returned or raised, the
    results in order, or the calling thread's error, else the first other."""
    if len(items) == 1:
        return [fn(items[0])]
    with ThreadPoolExecutor(len(items) - 1,
                            thread_name_prefix="tokenskip-shard") as pool:
        rest = [pool.submit(fn, item) for item in items[1:]]
        try:
            first = fn(items[0])
        finally:
            wait(rest)
    return [first] + [f.result() for f in rest]


def _forward(model: ViT, images: np.ndarray, schedule: DropSchedule,
             epoch: int, parts: list):
    """The logits and diagnostics of a batch run as ``parts`` (``_shards``),
    and the shards' CLS embeddings with their join (None for a whole batch).

    Each shard encodes its rows; the head runs once, on the concatenated
    CLS embeddings, so its small products are never split.
    """
    if len(parts) == 1:
        logits, diag = model.forward(images, schedule, epoch=epoch)
        return logits, diag, None

    def encode(part):
        # Only the CLS rows outlive the call, as in ViT.forward.
        tokens, diag = model.encode(images[part], schedule, epoch=epoch)
        return vit.cls_embeddings(tokens), diag

    cls, diags = zip(*_each(encode, parts))
    joined = T.Tensor(np.concatenate([c.data for c in cls]),
                      requires_grad=cls[0].requires_grad)
    return model.head(joined), diags[0], (cls, joined)


def _eval_logits(model: ViT, images: np.ndarray, schedule: DropSchedule,
                 epoch: int) -> np.ndarray:
    """Logits of one batch (call under no_grad), sharded as a train step's
    forward is (``_shards`` bounded by ``_row_macs``, then ``_forward``), so
    they are one whole forward's, whatever the CPU count, wherever a step's
    are."""
    with _shards(len(images), _row_macs(model, schedule, epoch)) as parts:
        return _forward(model, images, schedule, epoch, parts)[0].data


def _minor_faults() -> int:
    """The process's minor page faults so far; 0 where getrusage is missing."""
    try:
        import resource
    except ImportError:
        return 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _train_step(model: ViT, schedule: DropSchedule, opt: AdamW,
                images: np.ndarray, labels: np.ndarray, epoch: int, step: int,
                lr: float):
    """Forward, loss, backward and AdamW update; returns (loss, logits, diag).

    The batch runs as ``_shards``, bounded by ``_row_macs``. Each shard
    encodes its rows with a graph of its own (``_forward``). The head and
    the loss run once, on the concatenated CLS embeddings, and each shard
    walks its graph from its rows of their gradient, the parameter sums
    running once over the whole batch (``tensor.ShardSums``). So the step
    has the bits of the whole batch at one BLAS thread wherever its rows do
    (see ``_shards``).
    If a shard raises, the step raises once every shard has stopped, before
    the update.
    """
    with _shards(len(images), _row_macs(model, schedule, epoch)) as parts:
        logits, diag, shards = _forward(model, images, schedule, epoch, parts)
        loss = T.cross_entropy(logits, labels)
        if not np.isfinite(loss.data):
            raise RuntimeError(f"non-finite loss {float(loss.data)} at "
                               f"epoch {epoch} step {step}")
        opt.zero_grad()
        loss.backward()
        if shards is not None:
            cls, joined = shards
            sums = T.ShardSums(len(parts))
            _each(lambda i: sums.backward(cls[i], joined.grad[parts[i]], i),
                  list(range(len(parts))))
    opt.step(lr)
    # backward freed each activation as it passed it; a float and an array
    # hold no node, so the spent graph's nodes go on return.
    return float(loss.data), logits.data, diag


def check_inputs(model: ViT, schedule: DropSchedule, cfg: TrainConfig,
                 train_split: Split, val_split: Optional[Split] = None) -> None:
    """Raise ValueError unless the schedule fits the model, the train split
    holds a batch and the splits are non-empty and of the model's shape."""
    tokendrop.validate(schedule, model.config)
    if len(train_split) < cfg.batch_size:
        raise ValueError(f"train split of {len(train_split)} samples holds no "
                         f"full batch of {cfg.batch_size}")
    if val_split is not None and len(val_split) == 0:
        raise ValueError("validation split is empty")
    c = model.config
    shape = [CHANNELS, c.image_size, c.image_size]
    for name, split in (("train", train_split), ("validation", val_split)):
        if split is not None and list(split.images.shape[1:]) != shape:
            raise ValueError(f"{name} split images are "
                             f"{list(split.images.shape[1:])}, the model "
                             f"takes {shape}")


def train(model: ViT, schedule: DropSchedule, cfg: TrainConfig,
          train_split: Split, val_split: Optional[Split] = None,
          out_dir=None, max_steps: Optional[int] = None,
          stop_at_train_top1: Optional[float] = None) -> RunMetrics:
    """Deterministic training loop with epoch-gated token dropping.

    The current epoch is passed into the forward pass so drop warm-up is
    epoch-driven. Timing and the minor-fault count exclude validation and
    checkpointing.
    """
    if max_steps is not None and max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    check_inputs(model, schedule, cfg, train_split, val_split)
    steps_per_epoch = len(train_split) // cfg.batch_size
    _keep_heap()
    opt = AdamW(model.params, cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    metrics = RunMetrics()
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / METRICS_FILE).write_text("")
        (out_dir / TIMING_FILE).write_text("")

    limit = math.inf if max_steps is None else max_steps
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_split))
        first_step = len(metrics.step_losses)
        correct = 0
        elapsed = 0.0
        faults = _minor_faults()
        for step in range(steps_per_epoch):
            idx = order[step * cfg.batch_size:(step + 1) * cfg.batch_size]
            images = train_split.images[idx]
            labels = train_split.labels[idx]
            lr = lr_at(epoch, step, steps_per_epoch,
                       learning_rate=cfg.learning_rate,
                       warmup_lr=cfg.warmup_lr,
                       lr_warmup_epochs=cfg.lr_warmup_epochs, epochs=cfg.epochs)
            t0 = time.perf_counter()
            loss, logits, diag = _train_step(model, schedule, opt, images,
                                             labels, epoch, step, lr)
            elapsed += time.perf_counter() - t0

            metrics.step_losses.append(loss)
            correct += int((logits.argmax(axis=1) == labels).sum())
            if step == 0:  # token counts follow from schedule, config, epoch
                epoch_diag = diag
            if len(metrics.step_losses) >= limit:
                break
        faults = _minor_faults() - faults
        losses = metrics.step_losses[first_step:]
        seen = len(losses) * cfg.batch_size

        train_top1 = 100.0 * correct / seen
        val_top1 = None
        if val_split is not None:
            val_top1 = evaluate(model, val_split, schedule, epoch=epoch,
                                batch_size=cfg.batch_size)
        record = EpochRecord(
            epoch=epoch,
            train_loss=float(np.mean(losses)),
            train_top1=train_top1,
            val_top1=val_top1,
            samples_per_sec=seen / elapsed if elapsed > 0 else 0.0,
            attn_tokens=list(epoch_diag.attn_tokens),
            kept_patches=dict(epoch_diag.kept_patches),
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
        if len(metrics.step_losses) >= limit or (
                stop_at_train_top1 is not None
                and train_top1 >= stop_at_train_top1):
            break

    if out_dir is not None:
        checkpoint.save(model, out_dir / "model.ckpt")
    return metrics


def evaluate(model: ViT, split: Split, schedule: DropSchedule = DropSchedule(),
             epoch: int = PAST_WARMUP, batch_size: int = 64) -> float:
    """Top-1 accuracy (%) over a split, dense unless a schedule is given.

    A given schedule stays active (epoch past warm-up), matching the
    training-time topology; one that does not fit the model is a ValueError.
    Each batch runs as concurrent shards where a train step's would
    (``_eval_logits``), aligned so that their logits are one forward's.
    """
    n = len(split)
    if n == 0:
        raise ValueError("cannot evaluate an empty split")
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    _keep_heap()
    correct = 0
    with T.no_grad():
        for start in range(0, n, batch_size):
            images = split.images[start:start + batch_size]
            labels = split.labels[start:start + batch_size]
            logits = _eval_logits(model, images, schedule, epoch)
            correct += int((logits.argmax(axis=1) == labels).sum())
    return 100.0 * correct / n


@dataclass(frozen=True)
class Throughput:
    samples_per_sec: float        # the schedule arm
    saving: float                 # median per-pair step-time reduction


def benchmark(model: ViT, schedule: DropSchedule,
              cfg: TrainConfig) -> Throughput:
    """Paired train-step throughput of a schedule against the dense model.

    The wall clock drifts by large factors on minute timescales, so
    single-arm rates taken apart are not comparable. After a warm-up step
    per arm, dense and schedule steps run as adjacent pairs in seeded random
    order; the saving is the median per-pair ``1 - t_schedule / t_dense``,
    which cancels drift. The rate is the batch over the schedule arm's
    median step time. Steps run at learning rate 0, so all see the same
    weights. The schedule is planned first, so a rejected one runs no step.
    """
    tokendrop.plan(schedule, model.config)
    _keep_heap()
    c = model.config
    rng = np.random.default_rng(cfg.seed)
    images = rng.normal(size=(cfg.batch_size, CHANNELS, c.image_size,
                              c.image_size)).astype(np.float32)
    labels = rng.integers(0, c.num_classes, size=cfg.batch_size)
    opt = AdamW(model.params)
    arms = (DropSchedule(), schedule)
    order = [0, 1]  # one warm-up step per arm
    for _ in range(_BENCHMARK_PAIRS):
        order += (0, 1) if rng.integers(2) == 0 else (1, 0)
    times = np.empty(len(order))
    for step, arm in enumerate(order):
        t0 = time.perf_counter()
        _train_step(model, arms[arm], opt, images, labels, PAST_WARMUP, step, 0.0)
        times[step] = time.perf_counter() - t0
    order, times = np.array(order[2:]), times[2:]
    dense, dropped = times[order == 0], times[order == 1]
    return Throughput(cfg.batch_size / float(np.median(dropped)),
                      float(np.median(1.0 - dropped / dense)))
