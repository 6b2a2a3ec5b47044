"""Checkpoint archive: a JSON header that describes the model's parameter
table, then the table's payloads.

Layout (all integers little-endian):
  magic "TSCK", format version uint32 (3), header length uint32, then the
  sorted-keys JSON header ``{"config": <the six ModelConfig fields>,
  "params": [[name, "<f4" or "<f8", shape], ...]}`` in ``model.params``
  order, then each parameter's raw little-endian payload in table order, and
  nothing else. Round-trips are bit-exact.

An archive must hold exactly the parameters of its model config, each with
its model shape, as float32 or float64 (anything else fails the save with
CheckpointError). ``load`` checks the archive's table against
``vit.param_table`` of its header config and builds the model from the
archive's arrays with ``ViT.from_arrays``, drawing nothing. A truncated
archive, one with trailing bytes, or one whose header does not describe its
model raises CheckpointError; a file that is not an archive, or of another
format version, ValueError. Saves write a temporary file and rename it over
the target, so a failed save leaves any previous archive intact.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .vit import ModelConfig, ViT, param_table

MAGIC = b"TSCK"
FORMAT_VERSION = 3
_PREFIX = struct.Struct("<4sII")  # magic, format version, header length
_DTYPES = ("<f4", "<f8")


class CheckpointError(RuntimeError):
    """A checkpoint archive is truncated, corrupt or does not fit its model."""


def save(model: ViT, path) -> None:
    path = Path(path)
    table, payloads = [], []
    for name, p in model.params.items():
        dtype = f"<f{p.data.dtype.itemsize}"
        if p.data.dtype.kind != "f" or dtype not in _DTYPES:
            raise CheckpointError(
                f"parameter {name!r} has dtype {p.data.dtype}; archives hold "
                "float32 or float64")
        table.append([name, dtype, list(p.data.shape)])
        payloads.append(np.ascontiguousarray(p.data, dtype=dtype))
    header = json.dumps({"config": asdict(model.config), "params": table},
                        sort_keys=True).encode()
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_PREFIX.pack(MAGIC, FORMAT_VERSION, len(header)))
            fh.write(header)
            for payload in payloads:
                fh.write(payload.tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load(path) -> ViT:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path} is not a checkpoint archive")
    if len(raw) < _PREFIX.size:
        raise CheckpointError(f"{path} is truncated")
    _, version, header_len = _PREFIX.unpack_from(raw)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version {version}")
    offset = _PREFIX.size + header_len
    if offset > len(raw):
        raise CheckpointError(f"{path} is truncated")
    try:
        header = json.loads(raw[_PREFIX.size:offset])
        config = ModelConfig(**header["config"])
        if any(type(v) is not int for v in asdict(config).values()):
            raise TypeError(f"model config fields must be integers: {config}")
        want = {name: shape for name, (shape, _) in param_table(config).items()}
        table = [(name, dtype, tuple(shape))
                 for name, dtype, shape in header["params"]]
        names = Counter(name for name, _, _ in table)
    except (ValueError, TypeError, KeyError) as exc:
        raise CheckpointError(f"{path} has a bad header: {exc!r}") from exc
    names.subtract(want.keys())
    if any(names.values()):
        raise CheckpointError(
            f"{path} does not hold its model's parameters: unknown or repeated "
            f"{sorted((n for n, c in names.items() if c > 0), key=str)}, "
            f"missing {sorted(n for n, c in names.items() if c < 0)}")
    arrays = {}
    for name, dtype, shape in table:
        if dtype not in _DTYPES:
            raise CheckpointError(f"{path}: parameter {name!r} has dtype {dtype!r}")
        if shape != want[name]:
            raise CheckpointError(f"{path}: parameter {name!r} has shape "
                                  f"{list(shape)}, model expects {list(want[name])}")
        count = math.prod(want[name])
        end = offset + count * np.dtype(dtype).itemsize
        if end > len(raw):
            raise CheckpointError(f"{path} is truncated")
        arrays[name] = np.frombuffer(raw, dtype, count, offset).reshape(want[name]).copy()
        offset = end
    if offset != len(raw):
        raise CheckpointError(f"{path} has trailing bytes after its last parameter")
    return ViT.from_arrays(config, arrays)
