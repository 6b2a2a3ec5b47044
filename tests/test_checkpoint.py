"""Checkpoint round-trip tests for the binary parameter archive."""

import json
import struct
from dataclasses import asdict

import numpy as np
import pytest

from tokenskip import checkpoint, cli
from tokenskip.checkpoint import CheckpointError
from tokenskip.tensor import Tensor
from tokenskip.vit import ModelConfig, ViT

from gradcheck import float64_model

TINY = ModelConfig(depth=2, heads=2, embed_dim=8,
                   patch_size=2, image_size=4, num_classes=3)


def test_round_trip_is_bit_exact(tmp_path):
    model = ViT(TINY, seed=11)
    path = tmp_path / "model.ckpt"
    checkpoint.save(model, path)
    loaded = checkpoint.load(path)
    assert loaded.config == model.config
    assert set(loaded.params) == set(model.params)
    for name, p in model.params.items():
        q = loaded.params[name]
        assert q.data.dtype == p.data.dtype
        np.testing.assert_array_equal(q.data, p.data)
        assert q.requires_grad


def test_round_trip_preserves_forward_output(tmp_path):
    from tokenskip.tokendrop import DropSchedule
    model = ViT(TINY, seed=3)
    rng = np.random.default_rng(0)
    images = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
    logits, _ = model.forward(images, DropSchedule())
    checkpoint.save(model, tmp_path / "m.ckpt")
    loaded = checkpoint.load(tmp_path / "m.ckpt")
    logits2, _ = loaded.forward(images, DropSchedule())
    np.testing.assert_array_equal(logits.data, logits2.data)


def test_float64_parameters_survive(tmp_path):
    model = float64_model(TINY, seed=5)
    checkpoint.save(model, tmp_path / "m.ckpt")
    loaded = checkpoint.load(tmp_path / "m.ckpt")
    for name, p in model.params.items():
        assert loaded.params[name].data.dtype == np.float64
        np.testing.assert_array_equal(loaded.params[name].data, p.data)


def _refuse_random_models(monkeypatch):
    """Make ``ViT.__init__``, which draws a model at random, fail if called."""
    def refuse(self, config, seed=0):
        raise AssertionError("ViT.__init__ called")
    monkeypatch.setattr(ViT, "__init__", refuse)


@pytest.mark.parametrize("make", [lambda: ViT(TINY, seed=11),
                                  lambda: float64_model(TINY, seed=5)],
                         ids=["float32", "float64"])
def test_load_builds_no_random_model(tmp_path, monkeypatch, make):
    model = make()
    checkpoint.save(model, tmp_path / "m.ckpt")
    _refuse_random_models(monkeypatch)
    loaded = checkpoint.load(tmp_path / "m.ckpt")
    assert loaded.config == model.config
    assert list(loaded.params) == list(model.params)
    for name, p in model.params.items():
        assert loaded.params[name].data.dtype == p.data.dtype
        np.testing.assert_array_equal(loaded.params[name].data, p.data)
        assert loaded.params[name].requires_grad


def test_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="not a checkpoint"):
        checkpoint.load(path)


def test_rejects_unknown_version(tmp_path):
    model = ViT(TINY, seed=0)
    path = tmp_path / "m.ckpt"
    checkpoint.save(model, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version 99"):
        checkpoint.load(path)


def test_truncated_archive_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "m.ckpt"
    checkpoint.save(ViT(TINY, seed=0), path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(CheckpointError, match="truncated"):
        checkpoint.load(path)


@pytest.mark.parametrize("size", [6, 100, 12 + 1429 + 1])
def test_archive_cut_in_its_prefix_header_or_payload_is_truncated(tmp_path,
                                                                 size):
    path = tmp_path / "m.ckpt"
    checkpoint.save(ViT(TINY, seed=0), path)
    path.write_bytes(path.read_bytes()[:size])
    with pytest.raises(CheckpointError, match="truncated"):
        checkpoint.load(path)


def test_trailing_bytes_are_a_checkpoint_error(tmp_path):
    path = tmp_path / "m.ckpt"
    checkpoint.save(ViT(TINY, seed=0), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        checkpoint.load(path)


def test_missing_parameter_is_a_checkpoint_error(tmp_path):
    model = ViT(TINY, seed=0)
    del model.params["head.b"]
    checkpoint.save(model, tmp_path / "m.ckpt")
    with pytest.raises(CheckpointError, match="head.b"):
        checkpoint.load(tmp_path / "m.ckpt")


def test_unknown_parameter_is_a_checkpoint_error(tmp_path):
    model = ViT(TINY, seed=0)
    model.params["extra"] = model.params["head.b"]
    checkpoint.save(model, tmp_path / "m.ckpt")
    with pytest.raises(CheckpointError, match="extra"):
        checkpoint.load(tmp_path / "m.ckpt")


def test_misshapen_parameter_is_a_checkpoint_error(tmp_path):
    model = ViT(TINY, seed=0)
    model.params["head.w"] = Tensor(np.zeros((8, 4), np.float32), requires_grad=True)
    checkpoint.save(model, tmp_path / "m.ckpt")
    with pytest.raises(CheckpointError, match=r"head.w.*\[8, 4\].*\[8, 3\]"):
        checkpoint.load(tmp_path / "m.ckpt")


def test_failed_save_keeps_previous_archive(tmp_path):
    path = tmp_path / "m.ckpt"
    checkpoint.save(ViT(TINY, seed=0), path)
    before = path.read_bytes()
    model = ViT(TINY, seed=1)
    model.params["head.w"] = Tensor(model.params["head.w"].data.astype(np.float16),
                                    requires_grad=True)
    with pytest.raises(CheckpointError, match="head.w.*float16"):
        checkpoint.save(model, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_cli_eval_of_corrupt_checkpoint_is_exit_2(tmp_path, capsys):
    path = tmp_path / "m.ckpt"
    checkpoint.save(ViT(TINY, seed=0), path)
    path.write_bytes(path.read_bytes()[:-10])
    code = cli.main(["eval", "--checkpoint", str(path), "--set", "model.preset=tiny",
                     "--set", "dataset.train_n=8", "--set", "dataset.val_n=8"])
    assert code == cli.EXIT_RUNTIME
    assert "truncated" in capsys.readouterr().err


def _rewrite_header(path, edit):
    """Apply ``edit`` to the archive's parsed JSON header and write it back."""
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12:12 + length])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob
                     + raw[12 + length:])


@pytest.mark.parametrize("field", ["depth", "heads"])
def test_cli_eval_of_a_float_config_field_is_exit_2(tmp_path, capsys, field):
    path = tmp_path / "m.ckpt"
    checkpoint.save(ViT(TINY, seed=0), path)
    _rewrite_header(path, lambda h: h["config"].update({field: 2.0}))
    code = cli.main(["eval", "--checkpoint", str(path), "--set", "model.preset=tiny",
                     "--set", "dataset.train_n=8", "--set", "dataset.val_n=8"])
    assert code == cli.EXIT_RUNTIME
    assert "bad header" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda h: h.pop("params"),
    lambda h: h.update(params=[["head.b", "<f4"]]),
    lambda h: h.update(params=[[["head.b"], "<f4", [3]]]),
    lambda h: h["config"].update(width=8),
    lambda h: h["config"].update(depth=0),
], ids=["no_table", "short_entry", "unhashable_name", "unknown_field",
        "zero_depth"])
def test_header_that_does_not_describe_a_model_is_a_checkpoint_error(
        tmp_path, edit):
    path = tmp_path / "m.ckpt"
    checkpoint.save(ViT(TINY, seed=0), path)
    _rewrite_header(path, edit)
    with pytest.raises(CheckpointError, match="bad header"):
        checkpoint.load(path)


def test_wide_header_config_fails_before_any_model_is_built(tmp_path,
                                                            monkeypatch):
    # A header claiming a far wider model than its table describes must be
    # refused by the table check, before that model's weights are allocated.
    path = tmp_path / "m.ckpt"
    checkpoint.save(ViT(TINY, seed=0), path)
    _rewrite_header(path, lambda h: h["config"].update(embed_dim=4096))
    _refuse_random_models(monkeypatch)
    with pytest.raises(CheckpointError, match=r"'patch.w' has shape \[12, 8\], "
                                              r"model expects \[12, 4096\]"):
        checkpoint.load(path)


def test_table_dtype_other_than_f4_or_f8_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "m.ckpt"
    checkpoint.save(ViT(TINY, seed=0), path)
    _rewrite_header(path, lambda h: h["params"][-1].__setitem__(1, "<i4"))
    with pytest.raises(CheckpointError, match="'head.b' has dtype '<i4'"):
        checkpoint.load(path)


def test_repeated_parameter_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "m.ckpt"
    checkpoint.save(ViT(TINY, seed=0), path)
    _rewrite_header(path, lambda h: h["params"][-1].__setitem__(0, "head.w"))
    with pytest.raises(CheckpointError,
                       match=r"repeated \['head.w'\], missing \['head.b'\]"):
        checkpoint.load(path)


def test_format_2_archive_is_refused(tmp_path):
    # The previous layout: a config-only header and a tensor count, then per
    # tensor its name, dtype code, ndim, dims and payload.
    model = ViT(TINY, seed=0)
    header = json.dumps(asdict(model.config), sort_keys=True).encode()
    parts = [b"TSCK", struct.pack("<II", 2, len(header)), header,
             struct.pack("<I", len(model.params))]
    for name, p in model.params.items():
        parts += [struct.pack("<I", len(name)), name.encode(),
                  struct.pack(f"<BI{p.data.ndim}Q", 4, p.data.ndim, *p.data.shape),
                  p.data.tobytes()]
    path = tmp_path / "v2.ckpt"
    path.write_bytes(b"".join(parts))
    with pytest.raises(ValueError, match="format version 2"):
        checkpoint.load(path)


def test_format_3_layout_is_pinned(tmp_path):
    # Any change to these bytes is a new layout and must bump FORMAT_VERSION.
    assert checkpoint.FORMAT_VERSION == 3
    model = ViT(TINY, seed=0)
    path = tmp_path / "m.ckpt"
    checkpoint.save(model, path)
    raw = path.read_bytes()
    block = ('["blocks.{i}.ln1.g", "<f4", [8]], ["blocks.{i}.ln1.b", "<f4", [8]], '
             '["blocks.{i}.attn.wq", "<f4", [8, 8]], '
             '["blocks.{i}.attn.wk", "<f4", [8, 8]], '
             '["blocks.{i}.attn.wv", "<f4", [8, 8]], '
             '["blocks.{i}.attn.wo", "<f4", [8, 8]], '
             '["blocks.{i}.attn.bq", "<f4", [8]], ["blocks.{i}.attn.bk", "<f4", [8]], '
             '["blocks.{i}.attn.bv", "<f4", [8]], ["blocks.{i}.attn.bo", "<f4", [8]], '
             '["blocks.{i}.ln2.g", "<f4", [8]], ["blocks.{i}.ln2.b", "<f4", [8]], '
             '["blocks.{i}.ffn.w1", "<f4", [8, 32]], '
             '["blocks.{i}.ffn.b1", "<f4", [32]], '
             '["blocks.{i}.ffn.w2", "<f4", [32, 8]], '
             '["blocks.{i}.ffn.b2", "<f4", [8]], ')
    header = ('{"config": {"depth": 2, "embed_dim": 8, "heads": 2, '
              '"image_size": 4, "num_classes": 3, "patch_size": 2}, '
              '"params": [["patch.w", "<f4", [12, 8]], ["patch.b", "<f4", [8]], '
              '["cls", "<f4", [1, 1, 8]], ["pos", "<f4", [1, 5, 8]], '
              + block.format(i=0) + block.format(i=1)
              + '["ln_f.g", "<f4", [8]], ["ln_f.b", "<f4", [8]], '
              '["head.w", "<f4", [8, 3]], ["head.b", "<f4", [3]]]}').encode()
    assert raw[:4] == b"TSCK"
    assert struct.unpack_from("<II", raw, 4) == (3, 1429) == (3, len(header))
    assert raw[12:12 + 1429] == header
    assert len(raw) == 12 + 1429 + 7756
    assert raw[12 + 1429:] == b"".join(p.data.tobytes()
                                       for p in model.params.values())
