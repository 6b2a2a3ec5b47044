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


def _read_cifar_file(path: Path):
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0 or raw.size % CIFAR_RECORD_BYTES != 0:
        offset = raw.size - raw.size % CIFAR_RECORD_BYTES
        raise IngestError(
            f"{path}: truncated record at byte offset {offset} "
            f"(file size {raw.size} is not a multiple of {CIFAR_RECORD_BYTES})"
        )
    records = raw.reshape(-1, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    if labels.max() > 9:
        bad = int(np.argmax(labels > 9))
        raise IngestError(
            f"{path}: invalid label {labels[bad]} at record {bad} "
            f"(byte offset {bad * CIFAR_RECORD_BYTES})"
        )
    images = records[:, 1:].reshape(-1, CHANNELS, 32, 32).astype(np.float32) / 255.0
    return images, labels


def load_cifar10(root) -> tuple[Split, Split]:
    """Load the standard binary-format CIFAR-10 batches from a directory."""
    root = Path(root)
    # Tolerate the conventional extracted directory name.
    if not (root / CIFAR_TEST_FILE).exists() \
            and (root / "cifar-10-batches-bin" / CIFAR_TEST_FILE).exists():
        root = root / "cifar-10-batches-bin"
    train_parts = []
    for name in CIFAR_TRAIN_FILES:
        path = root / name
        if not path.exists():
            raise FileNotFoundError(f"missing CIFAR-10 batch {path}")
        train_parts.append(_read_cifar_file(path))
    test_images, test_labels = _read_cifar_file(root / CIFAR_TEST_FILE)
    train = Split(np.concatenate([p[0] for p in train_parts]),
                  np.concatenate([p[1] for p in train_parts]))
    return train, Split(test_images, test_labels)


def class_tints(classes: int) -> np.ndarray:
    """Deterministic per-class channel offsets, [classes, CHANNELS]."""
    k = np.arange(classes)[:, None]
    c = np.arange(CHANNELS)[None, :]
    return 0.1 * np.cos(2.0 * np.pi * (k / classes + c / CHANNELS))


def synthetic(seed: int, n: int, classes: int = 10,
              image_size: int = 32) -> Split:
    """Class-conditional patterns for CI: class k gets a bright square in
    grid cell k plus a class-specific color tint on a noisy background. The
    tint makes the class linearly readable from pooled features, so small
    models learn the task within a few hundred steps. Fully seeded."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    images = rng.normal(0.35, 0.12, size=(n, CHANNELS, image_size, image_size))
    images += class_tints(classes)[labels][:, :, None, None]
    grid = int(np.ceil(np.sqrt(classes)))
    cell = image_size // grid
    for i, k in enumerate(labels):
        r, c = divmod(int(k), grid)
        y0, x0 = r * cell, c * cell
        images[i, :, y0:y0 + cell, x0:x0 + cell] += 0.6
    return Split(np.clip(images, 0.0, 1.0).astype(np.float32),
                 labels.astype(np.int64))


def channel_stats(split: Split) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel (mean, std) of a split, each [CHANNELS]; a zero std is 1."""
    mean = split.images.mean(axis=(0, 2, 3))
    std = split.images.std(axis=(0, 2, 3))
    return mean, np.where(std == 0, 1.0, std)


def normalize(split: Split, stats: tuple[np.ndarray, np.ndarray]) -> Split:
    mean, std = (v.reshape(1, CHANNELS, 1, 1).astype(split.images.dtype)
                 for v in stats)
    return Split((split.images - mean) / std, split.labels)


def _prefix(split: Split, n: int, key: str) -> Split:
    if n > len(split):
        raise ValueError(f"{key} is {n}, but CIFAR-10 holds {len(split)} "
                         f"records for it")
    return Split(split.images[:n], split.labels[:n])


def load_dataset(source: str, root=None, *, seed: int = 0,
                 synthetic_n: int = 4096, synthetic_val_n: int = 512,
                 classes: int = 10, image_size: int = 32):
    """Resolve a dataset source name to normalized (train, val) splits.

    ``synthetic_n`` and ``synthetic_val_n`` size both sources: cifar10 takes
    that many leading records of its training and test files. The
    normalization statistics are those of the train split used.
    """
    if source == "cifar10":
        if not root:
            raise FileNotFoundError("cifar10 needs a dataset root (set dataset.root)")
        if classes != 10:
            raise ValueError(f"cifar10 has 10 classes, model.num_classes is "
                             f"{classes}")
        train, val = load_cifar10(root)
        train = _prefix(train, synthetic_n, "dataset.train_n")
        val = _prefix(val, synthetic_val_n, "dataset.val_n")
    elif source == "synthetic":
        train = synthetic(seed, synthetic_n, classes, image_size)
        val = synthetic(seed + 1, synthetic_val_n, classes, image_size)
    else:
        raise ValueError(f"unknown dataset source {source!r}")
    stats = channel_stats(train)
    return normalize(train, stats), normalize(val, stats)
