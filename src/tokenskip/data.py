"""Dataset ingestion: CIFAR-10 binary batches and a seeded synthetic generator."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHANNELS = 3  # both sources yield RGB images
CIFAR_RECORD_BYTES = 1 + CHANNELS * 32 * 32
CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_FILE = "test_batch.bin"

SOURCES = ("synthetic", "cifar10")


class IngestError(RuntimeError):
    """Raised when a dataset file is structurally corrupt."""


@dataclass
class Split:
    """One dataset split: float images [n, CHANNELS, H, W], int labels [n]."""
    images: np.ndarray
    labels: np.ndarray

    def __len__(self):
        return self.images.shape[0]


def _read_cifar_file(path: Path) -> np.ndarray:
    """Every record of one batch file, [n, CIFAR_RECORD_BYTES] uint8, after
    checking its size and each record's label."""
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0 or raw.size % CIFAR_RECORD_BYTES != 0:
        offset = raw.size - raw.size % CIFAR_RECORD_BYTES
        raise IngestError(
            f"{path}: truncated record at byte offset {offset} "
            f"(file size {raw.size} is not a multiple of {CIFAR_RECORD_BYTES})"
        )
    records = raw.reshape(-1, CIFAR_RECORD_BYTES)
    labels = records[:, 0]
    if labels.max() > 9:
        bad = int(np.argmax(labels > 9))
        raise IngestError(
            f"{path}: invalid label {labels[bad]} at record {bad} "
            f"(byte offset {bad * CIFAR_RECORD_BYTES})"
        )
    return records


def _leading_records(paths, n: int) -> tuple[np.ndarray, int]:
    """Check every record of ``paths`` in order; keep a copy of the first
    ``n``. Returns them and the number of records checked."""
    kept, total = [], 0
    for path in paths:
        records = _read_cifar_file(path)
        kept.append(records[:max(n - total, 0)].copy())
        total += len(records)
    return np.concatenate(kept), total


def _decode(records: np.ndarray, total: int, n: int, key: str) -> Split:
    if n > total:
        raise ValueError(f"{key} is {n}, but CIFAR-10 holds {total} "
                         f"records for it")
    images = records[:, 1:].reshape(-1, CHANNELS, 32, 32).astype(np.float32)
    images /= 255.0
    return Split(images, records[:, 0].astype(np.int64))


def _train_paths(root: Path):
    # Lazy, so a corrupt earlier batch is reported before a missing later one.
    for name in CIFAR_TRAIN_FILES:
        path = root / name
        if not path.exists():
            raise FileNotFoundError(f"missing CIFAR-10 batch {path}")
        yield path


def load_cifar10(root, train_n: int, val_n: int) -> tuple[Split, Split]:
    """The leading ``train_n`` training and ``val_n`` test records of the
    standard binary-format CIFAR-10 batches in a directory.

    Every record of all six files is size- and label-checked, one file at a
    time, but only the returned records are decoded to float32.
    """
    root = Path(root)
    # Tolerate the conventional extracted directory name.
    if not (root / CIFAR_TEST_FILE).exists() \
            and (root / "cifar-10-batches-bin" / CIFAR_TEST_FILE).exists():
        root = root / "cifar-10-batches-bin"
    train = _leading_records(_train_paths(root), train_n)
    val = _leading_records([root / CIFAR_TEST_FILE], val_n)
    return (_decode(*train, train_n, "dataset.train_n"),
            _decode(*val, val_n, "dataset.val_n"))


def class_tints(classes: int) -> np.ndarray:
    """Deterministic per-class channel offsets, [classes, CHANNELS]."""
    k = np.arange(classes)[:, None]
    c = np.arange(CHANNELS)[None, :]
    return 0.1 * np.cos(2.0 * np.pi * (k / classes + c / CHANNELS))


SYNTHETIC_CHUNK = 256  # samples drawn in float64 at a time


def synthetic(seed: int, n: int, classes: int = 10,
              image_size: int = 32) -> Split:
    """Class-conditional patterns for CI: class k gets a bright square in
    grid cell k plus a class-specific color tint on a noisy background. The
    tint makes the class linearly readable from pooled features, so small
    models learn the task within a few hundred steps. Fully seeded.

    Images are drawn, tinted, brightened and clipped in float64,
    ``SYNTHETIC_CHUNK`` samples at a time, each chunk cast straight into the
    float32 result. The noise is consumed in sample order, so the bytes do
    not depend on the chunk size.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    tints = class_tints(classes)
    grid = int(np.ceil(np.sqrt(classes)))
    cell = image_size // grid
    images = np.empty((n, CHANNELS, image_size, image_size), np.float32)
    for start in range(0, n, SYNTHETIC_CHUNK):
        chunk_labels = labels[start:start + SYNTHETIC_CHUNK]
        chunk = rng.normal(0.35, 0.12, size=(len(chunk_labels),) + images.shape[1:])
        chunk += tints[chunk_labels][:, :, None, None]
        for image, k in zip(chunk, chunk_labels):
            r, c = divmod(int(k), grid)
            y0, x0 = r * cell, c * cell
            image[:, y0:y0 + cell, x0:x0 + cell] += 0.6
        images[start:start + len(chunk)] = np.clip(chunk, 0.0, 1.0, out=chunk)
    return Split(images, labels.astype(np.int64))


def channel_stats(split: Split) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel (mean, std) of a split, each [CHANNELS]; a zero std is 1."""
    mean = split.images.mean(axis=(0, 2, 3))
    std = split.images.std(axis=(0, 2, 3))
    return mean, np.where(std == 0, 1.0, std)


def normalize(split: Split, stats: tuple[np.ndarray, np.ndarray]) -> Split:
    mean, std = (v.reshape(1, CHANNELS, 1, 1).astype(split.images.dtype)
                 for v in stats)
    images = split.images - mean
    images /= std
    return Split(images, split.labels)


def _raw_splits(source: str, root, *, seed: int, synthetic_n: int,
                synthetic_val_n: int, classes: int, image_size: int):
    """The (train, val) splits ``load_dataset`` normalizes, as loaded."""
    if source == "cifar10":
        if not root:
            raise FileNotFoundError("cifar10 needs a dataset root (set dataset.root)")
        if classes != 10:
            raise ValueError(f"cifar10 has 10 classes, model.num_classes is "
                             f"{classes}")
        train, val = load_cifar10(root, synthetic_n, synthetic_val_n)
    elif source == "synthetic":
        train = synthetic(seed, synthetic_n, classes, image_size)
        val = synthetic(seed + 1, synthetic_val_n, classes, image_size)
    else:
        raise ValueError(f"unknown dataset source {source!r}")
    if len(train) == 0:
        raise ValueError("dataset.train_n is 0: no statistics to normalize by")
    return train, val


def load_dataset(source: str, root=None, *, seed: int = 0,
                 synthetic_n: int = 4096, synthetic_val_n: int = 512,
                 classes: int = 10, image_size: int = 32):
    """Resolve a dataset source name to normalized (train, val) splits.

    ``synthetic_n`` and ``synthetic_val_n`` size both sources: cifar10 takes
    that many leading records of its training and test files. The
    normalization statistics are those of the train split used, so an empty
    train split is a ValueError. A source holds the float32 splits it returns
    plus one bounded chunk: a ``SYNTHETIC_CHUNK`` of float64 noise, or one
    CIFAR-10 file's raw bytes while it is checked. Taking the statistics and
    normalizing each hold one more train-sized float32 array at their peak.
    """
    train, val = _raw_splits(source, root, seed=seed, synthetic_n=synthetic_n,
                             synthetic_val_n=synthetic_val_n, classes=classes,
                             image_size=image_size)
    stats = channel_stats(train)
    train = normalize(train, stats)  # frees the raw train split before val
    return train, normalize(val, stats)
