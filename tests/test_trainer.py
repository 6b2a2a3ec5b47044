"""Training loop tests: smoke runs, determinism, evaluation, benchmarking."""

import dataclasses
import json

import numpy as np
import pytest

from tokenskip import cli, config, data, tokendrop, trainer
from tokenskip.tokendrop import DropSchedule
from tokenskip.trainer import TrainConfig
from tokenskip.vit import ModelConfig, ViT

TINY = ModelConfig(depth=2, heads=2, embed_dim=8, ffn_ratio=2,
                   patch_size=2, image_size=4, num_classes=3)


def tiny_split(seed=0, n=24):
    return data.synthetic(seed, n, classes=3, image_size=4)


def tiny_cfg(**kw):
    base = dict(batch_size=8, epochs=2, learning_rate=1e-3,
                lr_warmup_epochs=1, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestTrain:
    def test_smoke_run_writes_outputs(self, tmp_path):
        model = ViT(TINY, seed=1)
        metrics = trainer.train(model, DropSchedule.none(), tiny_cfg(),
                                tiny_split(), tiny_split(1, 8),
                                out_dir=tmp_path)
        assert len(metrics.epochs) == 2
        assert all(np.isfinite(r.train_loss) for r in metrics.epochs)
        assert metrics.final_val_top1 is not None
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert rec["epoch"] == 0
        assert "samples_per_sec" not in rec
        timing = (tmp_path / "timing.jsonl").read_text().splitlines()
        assert json.loads(timing[0])["samples_per_sec"] > 0
        assert (tmp_path / "model.ckpt").exists()

    def test_same_seed_metrics_are_byte_identical(self, tmp_path):
        out = []
        for run in ("a", "b"):
            model = ViT(TINY, seed=2)
            trainer.train(model, DropSchedule.none(), tiny_cfg(),
                          tiny_split(), out_dir=tmp_path / run)
            out.append((tmp_path / run / "metrics.jsonl").read_bytes())
        assert out[0] == out[1]

    def test_different_seed_changes_metrics(self, tmp_path):
        out = []
        for seed in (0, 1):
            model = ViT(TINY, seed=2)
            trainer.train(model, DropSchedule.none(), tiny_cfg(seed=seed),
                          tiny_split(), out_dir=tmp_path / str(seed))
            out.append((tmp_path / str(seed) / "metrics.jsonl").read_bytes())
        assert out[0] != out[1]

    def test_max_steps_truncates(self):
        model = ViT(TINY, seed=0)
        metrics = trainer.train(model, DropSchedule.none(),
                                tiny_cfg(epochs=10), tiny_split(),
                                max_steps=4)
        assert len(metrics.step_losses) == 4

    def test_stop_at_train_top1(self):
        model = ViT(TINY, seed=0)
        metrics = trainer.train(model, DropSchedule.none(),
                                tiny_cfg(epochs=50), tiny_split(),
                                stop_at_train_top1=0.0)
        assert len(metrics.epochs) == 1

    def test_mixup_is_an_unknown_key_and_the_paper_preset_trains(self, capsys):
        assert cli.main(["flops", "--set", "train.mixup=0.1"]) == cli.EXIT_CONFIG
        assert "train.mixup" in capsys.readouterr().err
        cfg = config.build({"train.preset": "paper-vit-small"})
        assert cfg.train.batch_size == 288
        model = ViT(TINY, seed=0)
        small = dataclasses.replace(cfg.train, batch_size=8, epochs=1)
        metrics = trainer.train(model, DropSchedule.none(), small, tiny_split())
        assert len(metrics.epochs) == 1

    def test_invalid_schedule_is_rejected(self):
        model = ViT(TINY, seed=0)
        bad = DropSchedule(stages=((0, 0.5),), skip_target=1,
                           mode=tokendrop.MODE_SKIP)
        with pytest.raises(ValueError):
            trainer.train(model, bad, tiny_cfg(), tiny_split())

    def test_dropping_reduces_attention_tokens(self, tmp_path):
        config = ModelConfig(depth=4, heads=2, embed_dim=8, ffn_ratio=2,
                             patch_size=2, image_size=8, num_classes=3)
        model = ViT(config, seed=0)
        schedule = DropSchedule.single(drop_layer=1, ratio=0.5, skip_target=3)
        metrics = trainer.train(model, schedule, tiny_cfg(epochs=1),
                                data.synthetic(0, 16, classes=3, image_size=8))
        tokens = metrics.epochs[0].attn_tokens
        assert tokens[0] == 17 and tokens[2] < 17 and tokens[3] == 17


class TestEvaluate:
    def test_matches_manual_forward(self):
        model = ViT(TINY, seed=4)
        split = tiny_split(3, 20)
        acc = trainer.evaluate(model, split, batch_size=7)
        logits, _ = model.forward(split.images, DropSchedule.none())
        expected = 100.0 * (logits.data.argmax(axis=1) == split.labels).mean()
        assert acc == pytest.approx(expected)

    def test_schedule_defaults_to_none(self):
        model = ViT(TINY, seed=4)
        split = tiny_split(3, 8)
        assert trainer.evaluate(model, split) == trainer.evaluate(
            model, split, DropSchedule.none())


class TestBenchmark:
    def test_returns_positive_rate(self):
        model = ViT(TINY, seed=0)
        rate = trainer.benchmark(model, DropSchedule.none(),
                                 tiny_cfg(batch_size=4), batches=3, discard=1)
        assert rate > 0

    def test_leaves_weights_untouched(self):
        model = ViT(TINY, seed=0)
        before = {k: p.data.copy() for k, p in model.params.items()}
        trainer.benchmark(model, DropSchedule.none(), tiny_cfg(batch_size=4),
                          batches=2, discard=1)
        for k, p in model.params.items():
            np.testing.assert_array_equal(p.data, before[k])
