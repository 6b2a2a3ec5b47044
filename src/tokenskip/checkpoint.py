"""Checkpoint archive: named parameter tensors with a config header.

Layout (all integers little-endian):
  magic "TSCK", format version uint32, header-JSON length uint32, header JSON
  (model config fields), tensor count uint32, then per tensor: name length +
  utf-8 name, dtype code uint8 (4 or 8 bytes per scalar), ndim uint32, dims
  uint64 each, raw little-endian payload. Round-trips are bit-exact.

An archive must hold exactly the parameters of its model config, each with
its model shape, as float32 or float64 (anything else fails the save with
CheckpointError). A truncated or inconsistent archive raises CheckpointError;
a file that is not an archive, or of another format version, ValueError.
Saves write a temporary file and rename it over the target, so a failed save
leaves any previous archive intact.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .tensor import Tensor
from .vit import ModelConfig, ViT

MAGIC = b"TSCK"
FORMAT_VERSION = 1

_DTYPE_CODES = {4: np.dtype("<f4"), 8: np.dtype("<f8")}


class CheckpointError(RuntimeError):
    """A checkpoint archive is truncated, corrupt or does not fit its model."""


def save(model: ViT, path) -> None:
    path = Path(path)
    for name, p in model.params.items():
        if p.data.dtype.kind != "f" or p.data.dtype.itemsize not in _DTYPE_CODES:
            raise CheckpointError(
                f"parameter {name!r} has dtype {p.data.dtype}; archives hold "
                "float32 or float64")
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            header = json.dumps(asdict(model.config), sort_keys=True).encode()
            fh.write(MAGIC)
            fh.write(struct.pack("<II", FORMAT_VERSION, len(header)))
            fh.write(header)
            fh.write(struct.pack("<I", len(model.params)))
            for name, p in model.params.items():
                blob = name.encode()
                fh.write(struct.pack("<I", len(blob)))
                fh.write(blob)
                code = p.data.dtype.itemsize
                fh.write(struct.pack("<BI", code, p.data.ndim))
                fh.write(struct.pack(f"<{p.data.ndim}Q", *p.data.shape))
                fh.write(np.ascontiguousarray(p.data, dtype=_DTYPE_CODES[code]).tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read(fh, size: int, path) -> bytes:
    # Checked against the file size first, so a corrupt length field cannot
    # make the read allocate a huge buffer.
    if fh.tell() + size > os.fstat(fh.fileno()).st_size:
        raise CheckpointError(f"{path} is truncated")
    return fh.read(size)


def load(path) -> ViT:
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ValueError(f"{path} is not a checkpoint archive")
        version, header_len = struct.unpack("<II", _read(fh, 8, path))
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format version {version}")
        try:
            config = ModelConfig(**json.loads(_read(fh, header_len, path)))
        except (ValueError, TypeError) as exc:
            raise CheckpointError(f"{path} has a bad config header: {exc}") from exc
        model = ViT(config, seed=0)
        (count,) = struct.unpack("<I", _read(fh, 4, path))
        loaded = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read(fh, 4, path))
            name = _read(fh, name_len, path).decode(errors="replace")
            code, ndim = struct.unpack("<BI", _read(fh, 5, path))
            shape = struct.unpack(f"<{ndim}Q", _read(fh, 8 * ndim, path))
            if name not in model.params or name in loaded:
                raise CheckpointError(f"{path} holds unknown or repeated parameter {name!r}")
            if shape != model.params[name].shape:
                raise CheckpointError(
                    f"{path}: parameter {name!r} has shape {list(shape)}, "
                    f"model expects {list(model.params[name].shape)}")
            if code not in _DTYPE_CODES:
                raise CheckpointError(f"{path}: parameter {name!r} has dtype code {code}")
            dtype = _DTYPE_CODES[code]
            payload = _read(fh, int(np.prod(shape, dtype=np.int64)) * dtype.itemsize, path)
            loaded[name] = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
        if fh.read(1):
            raise CheckpointError(f"{path} has trailing bytes after its last parameter")
    missing = sorted(set(model.params) - set(loaded))
    if missing:
        raise CheckpointError(f"{path} lacks parameters {missing}")
    for name, arr in loaded.items():
        model.params[name] = Tensor(arr, requires_grad=True)
    return model
