"""Checkpoint round-trip tests for the binary parameter archive."""

import numpy as np
import pytest

from tokenskip import checkpoint, cli
from tokenskip.checkpoint import CheckpointError
from tokenskip.vit import ModelConfig, ViT

TINY = ModelConfig(depth=2, heads=2, embed_dim=8, ffn_ratio=2,
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
    logits, _ = model.forward(images, DropSchedule.none())
    checkpoint.save(model, tmp_path / "m.ckpt")
    loaded = checkpoint.load(tmp_path / "m.ckpt")
    logits2, _ = loaded.forward(images, DropSchedule.none())
    np.testing.assert_array_equal(logits.data, logits2.data)


def test_float64_parameters_survive(tmp_path):
    model = ViT(TINY, seed=5)
    for p in model.params.values():
        p.data = p.data.astype(np.float64)
    checkpoint.save(model, tmp_path / "m.ckpt")
    loaded = checkpoint.load(tmp_path / "m.ckpt")
    for name, p in model.params.items():
        assert loaded.params[name].data.dtype == np.float64
        np.testing.assert_array_equal(loaded.params[name].data, p.data)


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
    model.params["head.w"].data = np.zeros((8, 4), dtype=np.float32)
    checkpoint.save(model, tmp_path / "m.ckpt")
    with pytest.raises(CheckpointError, match=r"head.w.*\[8, 4\].*\[8, 3\]"):
        checkpoint.load(tmp_path / "m.ckpt")


def test_failed_save_keeps_previous_archive(tmp_path):
    path = tmp_path / "m.ckpt"
    checkpoint.save(ViT(TINY, seed=0), path)
    before = path.read_bytes()
    model = ViT(TINY, seed=1)
    model.params["head.w"].data = model.params["head.w"].data.astype(np.float16)
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
