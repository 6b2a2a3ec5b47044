"""Training loop tests: smoke runs, determinism, evaluation, benchmarking."""

import dataclasses
import json
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

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
        assert "samples_per_sec" not in rec and "minor_faults" not in rec
        timing = (tmp_path / "timing.jsonl").read_text().splitlines()
        row = json.loads(timing[0])
        assert set(row) == {"epoch", "samples_per_sec", "minor_faults"}
        assert row["samples_per_sec"] > 0
        assert isinstance(row["minor_faults"], int) and row["minor_faults"] >= 0
        assert (tmp_path / "model.ckpt").exists()

    def test_infinite_loss_fails_at_its_step(self):
        model = ViT(TINY, seed=1)
        # Logits of +-3e38 overflow float32 in the cross-entropy: the loss
        # is +inf, not NaN, for any batch holding a label other than 0.
        model.params["head.b"].data[:] = -3e38
        model.params["head.b"].data[0] = 3e38
        split = tiny_split()
        split.labels[:] = 1
        with np.errstate(over="ignore"), pytest.raises(
                RuntimeError, match="non-finite loss inf at epoch 0 step 0"):
            trainer.train(model, DropSchedule.none(), tiny_cfg(), split)

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


# Fresh process: warm evaluate, measure it, then warm train and measure it,
# all on the desk model at batch 8. Prints mean minor faults per call.
_FAULT_PROBE = textwrap.dedent("""
    import resource
    from tokenskip import config, data, trainer
    from tokenskip.vit import ViT

    cfg = config.build({"model.preset": "desk", "train.batch_size": "8",
                        "train.epochs": "1"})
    split = data.synthetic(0, 8, classes=10, image_size=32)
    model = ViT(cfg.model, seed=0)

    def faults(call, calls):
        start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(calls):
            call()
        return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                - start) / calls

    def ev():
        trainer.evaluate(model, split, cfg.schedule, batch_size=8)

    def tr():
        trainer.train(model, cfg.schedule, cfg.train, split)

    faults(ev, 2)
    evaluate = faults(ev, 5)
    faults(tr, 2)
    print(evaluate, faults(tr, 5))
""")


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc",
                    reason="glibc allocator behaviour")
def test_steady_steps_fault_no_pages_in():
    # Without the allocator setting a step re-faults its working set:
    # thousands of faults per call at this size.
    src = str(Path(trainer.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    evaluate, train = map(float, proc.stdout.split())
    assert evaluate < 200, f"{evaluate} minor faults per evaluate call"
    assert train < 200, f"{train} minor faults per train call"


class _FakeLibc:
    def __init__(self, accepts):
        self.calls = []
        self.accepts = accepts

        def mallopt(param, value):
            self.calls.append((param, value))
            return 1 if (param, value) in self.accepts else 0
        self.mallopt = mallopt


def test_keep_heap_sets_the_trim_threshold_only_after_the_mmap_threshold():
    # A 32-bit glibc rejects a 32 MiB mmap threshold; setting the trim
    # threshold alone would freeze the dynamic mmap threshold at 128 KiB.
    mmap_32m = (trainer._M_MMAP_THRESHOLD, 32 << 20)
    for accepts, calls in (({mmap_32m}, 2), (set(), 1)):
        libc = _FakeLibc(accepts)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainer.ctypes, "CDLL", lambda name: libc)
            trainer._keep_heap()
        assert libc.calls[0] == mmap_32m
        assert len(libc.calls) == calls


@pytest.mark.parametrize("error", [OSError, TypeError])
def test_keep_heap_is_a_no_op_without_a_loadable_c_library(monkeypatch, error):
    def cdll(name):
        raise error("no C library")
    monkeypatch.setattr(trainer.ctypes, "CDLL", cdll)
    trainer._keep_heap()
    monkeypatch.setattr(trainer.ctypes, "CDLL", lambda name: object())
    trainer._keep_heap()
