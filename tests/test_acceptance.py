"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

The heavier criteria (overfit smoke, throughput, three-arm parity) run the
depth-6 / width-128 desk model for minutes on one CPU; everything else is
seconds. Lines are written straight to the real stdout so they appear even
under pytest capture.
"""

import dataclasses
import json
import sys
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from gradcheck import finite_difference, float64_model, relative_error
from tokenskip import cli, data, flops, tensor as T, tokendrop, trainer
from tokenskip.optim import AdamW
from tokenskip.tensor import Tensor
from tokenskip.tokendrop import DropSchedule, MODE_FUSE, MODE_SKIP
from tokenskip.trainer import TrainConfig
from tokenskip.vit import MODEL_PRESETS, ModelConfig, TokenBatch, ViT

DESK = MODEL_PRESETS["desk"]
TINY = MODEL_PRESETS["tiny"]


_CAPTURE = None


@pytest.fixture(scope="module", autouse=True)
def _capture_plugin(request):
    # Pytest's default capture redirects file descriptor 1 itself, so even
    # sys.__stdout__ is swallowed; suspend capture around each line instead.
    global _CAPTURE
    _CAPTURE = request.config.pluginmanager.getplugin("capturemanager")
    yield
    _CAPTURE = None


def _say(line: str) -> None:
    suspend = (_CAPTURE.global_and_fixture_disabled() if _CAPTURE is not None
               else nullcontext())
    with suspend:
        sys.stdout.write(line + "\n")
        sys.stdout.flush()


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        _say(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    _say(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_01_gradient_integrity():
    """Every parameter gradient matches central finite differences (64-bit)."""
    with criterion(1, "gradient integrity"):
        # Tiny one layer deeper: the shallowest model with a valid drop layer.
        config = dataclasses.replace(TINY, depth=3)
        schedules = [
            DropSchedule(stages=((1, 0.5),), skip_target=2, mode=MODE_SKIP),
            DropSchedule(stages=((1, 0.5),), mode=MODE_FUSE),
        ]
        rng = np.random.default_rng(0)
        images = rng.normal(size=(2, 3, 4, 4))
        labels = np.array([0, 2])
        for schedule in schedules:
            model = float64_model(config, seed=1)

            def loss_value():
                logits, _ = model.forward(images, schedule, epoch=0)
                return float(T.cross_entropy(logits, labels).data)

            # The gradients a train step computes; at learning rate 0
            # the update leaves the weights as they were.
            trainer._train_step(model, schedule, AdamW(model.params),
                                images, labels, 0, 0, 0.0)
            for name, p in model.params.items():
                numeric = finite_difference(loss_value, p.data)
                analytic = (p.grad if p.grad is not None
                            else np.zeros_like(p.data))
                denom = (np.linalg.norm(analytic)
                         + np.linalg.norm(numeric))
                if denom < 1e-7:
                    # A uniform key bias cancels inside softmax, so its
                    # true gradient is zero; both sides agree on that.
                    continue
                err = relative_error(analytic, numeric)
                assert err < 1e-3, (
                    f"{schedule.mode}: parameter {name} gradient error "
                    f"{err:.2e}")


def test_criterion_02_mechanism_off_equivalence():
    """Schedule none, all-zero ratios, and warm-up epochs are bit-identical."""
    with criterion(2, "mechanism-off equivalence"):
        config = ModelConfig(depth=4, heads=2, embed_dim=16,
                             patch_size=2, image_size=8, num_classes=5)
        model = ViT(config, seed=3)
        rng = np.random.default_rng(1)
        images = rng.normal(size=(3, 3, 8, 8)).astype(np.float32)
        plain, _ = model.forward(images, DropSchedule(), epoch=0)
        zero_ratio = DropSchedule(stages=((1, 0.0),), skip_target=3,
                                  mode=MODE_SKIP)
        warming_up = DropSchedule(stages=((1, 0.5),), skip_target=3,
                                  mode=MODE_SKIP, warmup_epochs=5)
        for schedule, epoch in [(DropSchedule(), 7),
                                (zero_ratio, 7), (warming_up, 0),
                                (warming_up, 4)]:
            logits, _ = model.forward(images, schedule, epoch=epoch)
            assert np.array_equal(logits.data, plain.data), (
                f"{schedule} at epoch {epoch} changed the logits")


def test_criterion_03_partition_round_trip():
    """1000 randomized split/reinsert cases over up to two stages."""
    with criterion(3, "partition/round-trip suite"):
        rng = np.random.default_rng(42)
        for case in range(1000):
            b = int(rng.integers(1, 4))
            patches = int(rng.integers(2, 17))
            d = int(rng.integers(1, 5))
            stages = int(rng.integers(1, 3))
            emb = rng.normal(size=(b, patches + 1, d))
            everything = np.tile(np.arange(patches + 1), (b, 1))
            tokens = TokenBatch(Tensor(emb.copy()))
            stash = []
            # The input row of each live row, and of each dropped row.
            rows, dropped = everything, []
            for stage in range(stages):
                live_patches = tokens.num_tokens - 1
                if live_patches < 2:
                    break
                ratio = float(rng.uniform(0.0, 0.9))
                scores = rng.uniform(0.0, 1.0, size=(b, live_patches))
                # Quantize some cases to force ties.
                if case % 3 == 0:
                    scores = np.round(scores, 1)
                keep, drop = tokendrop.select_topk(scores, ratio)
                # Deterministic and total: a second call agrees exactly.
                keep2, drop2 = tokendrop.select_topk(scores, ratio)
                assert np.array_equal(keep, keep2)
                assert np.array_equal(drop, drop2)
                # Invariant under positive scaling (powers of two are exact).
                keep3, _ = tokendrop.select_topk(scores * 4.0, ratio)
                assert np.array_equal(keep, keep3)
                assert 0 not in drop, "CLS row must never be dropped"
                tokens = tokendrop.split(tokens, keep, drop, stash)
                dropped.append(np.take_along_axis(rows, drop, axis=1))
                rows = np.take_along_axis(rows, np.concatenate(
                    [np.zeros((b, 1), dtype=keep.dtype), keep], axis=1),
                    axis=1)
                # The live rows are the input's at the composed rows.
                assert np.array_equal(tokens.embeddings.data,
                                      emb[np.arange(b)[:, None], rows])
                # Partition: live rows + stashed rows == {0..n}.
                union = np.concatenate([rows] + dropped, axis=1)
                assert np.array_equal(np.sort(union, axis=1), everything)
            # Stashed rows are bit-equal to their drop-time values, so with
            # no transform in between reinsertion restores the input exactly.
            restored = tokendrop.reinsert(tokens, stash)
            assert np.array_equal(restored.embeddings.data, emb)
            assert not stash


def _matrix_schedules(depth: int):
    mid = depth // 2
    last = depth - 1
    yield "none", DropSchedule()
    yield "single", DropSchedule(stages=((mid, 0.55),), skip_target=last,
                                 mode=MODE_SKIP)
    if depth > 2:
        yield "two-stage", DropSchedule(
            stages=((max(1, mid - 2), 0.3), (mid, 0.3)), skip_target=last,
            mode=MODE_SKIP)
    yield "fuse", DropSchedule(stages=((mid, 0.45),), mode=MODE_FUSE)


def test_criterion_04_flops_oracle():
    """Analytic MAC estimate equals the instrumented counter exactly."""
    with criterion(4, "FLOPs oracle"):
        checked = 0
        for depth in (1, 2, 12):
            config = ModelConfig(depth=depth, heads=2, embed_dim=16,
                                 patch_size=2, image_size=4, num_classes=3)
            model = ViT(config, seed=0)
            for name, schedule in _matrix_schedules(depth):
                try:
                    tokendrop.validate(schedule, config)
                except ValueError:
                    # Shallow depths admit no structurally valid drop
                    # layer; only the reachable matrix is asserted.
                    continue
                analytic = flops.estimate_flops(config, schedule)
                measured = flops.measure_forward_macs(model, schedule)
                assert analytic.schedule_total == measured, (
                    f"depth {depth} {name}: "
                    f"analytic {analytic.schedule_total} != "
                    f"measured {measured}")
                checked += 1
        # Depths 1 and 2 admit no structurally valid drop layer, so the
        # reachable matrix is 2 dense configurations plus 4 at depth 12.
        assert checked == 6


def test_criterion_05_keep_count_arithmetic():
    """196 patches: 55% -> 89 kept; 30%+30% -> 138 then 97, per-stage ceil."""
    with criterion(5, "keep-count arithmetic"):
        image = np.random.default_rng(0).normal(
            size=(1, 3, 56, 56)).astype(np.float32)

        single_cfg = ModelConfig(depth=3, heads=2, embed_dim=8,
                                 patch_size=4, image_size=56, num_classes=3)
        assert single_cfg.num_patches == 196
        model = ViT(single_cfg, seed=0)
        schedule = DropSchedule(stages=((1, 0.55),), skip_target=2,
                                mode=MODE_SKIP)
        _, diag = model.forward(image, schedule, epoch=0)
        assert diag.kept_patches == {1: 89}

        two_cfg = ModelConfig(depth=4, heads=2, embed_dim=8,
                              patch_size=4, image_size=56, num_classes=3)
        model = ViT(two_cfg, seed=0)
        schedule = DropSchedule(stages=((1, 0.3), (2, 0.3)), skip_target=3,
                                mode=MODE_SKIP)
        _, diag = model.forward(image, schedule, epoch=0)
        assert diag.kept_patches == {1: 138, 2: 97}


def test_criterion_06_overfit_smoke():
    """Desk model memorizes 64 fixed samples within 400 optimizer steps."""
    with criterion(6, "overfit smoke"):
        split = data.synthetic(0, 64, classes=10, image_size=32)
        stats = data.channel_stats(split)
        split = data.normalize(split, stats)
        model = ViT(DESK, seed=0)
        cfg = TrainConfig(batch_size=16, epochs=100, learning_rate=1e-3,
                          weight_decay=0.0, lr_warmup_epochs=2, seed=0)
        metrics = trainer.train(model, DropSchedule(), cfg, split,
                                max_steps=400, stop_at_train_top1=99.0)
        steps = len(metrics.step_losses)
        top1 = metrics.final_train_top1
        _say(f"  overfit: train top-1 {top1:.1f}% after {steps} steps")
        assert steps <= 400
        assert top1 >= 99.0, f"only {top1:.1f}% after {steps} steps"


def test_criterion_07_directional_throughput():
    """Dropping beats the dense baseline; reduction within 2x of prediction.

    The reduction is the paired median of ``trainer.benchmark``.
    """
    with criterion(7, "directional throughput"):
        schedule = DropSchedule(stages=((3, 0.55),), skip_target=5,
                                mode=MODE_SKIP)
        measured = trainer.benchmark(ViT(DESK, seed=0), schedule,
                                     TrainConfig(batch_size=96, seed=0)).saving
        predicted = flops.estimate_flops(DESK, schedule).saving_fraction
        _say(f"  throughput: median per-pair step-time reduction "
             f"{measured:.3f} predicted {predicted:.3f}")
        assert measured > 0, "drop schedule is not faster than baseline"
        assert predicted / 2 <= measured <= predicted * 2, (
            f"measured reduction {measured:.3f} outside factor-2 band of "
            f"predicted {predicted:.3f}")


def _train_arm(schedule, train_split, val_split, epochs, seed):
    model = ViT(DESK, seed=seed)
    cfg = TrainConfig(batch_size=16, epochs=epochs, learning_rate=1e-3,
                      weight_decay=0.05, lr_warmup_epochs=1, seed=seed)
    return trainer.train(model, schedule, cfg, train_split, val_split)


def test_criterion_08_accuracy_parity():
    """Three arms, identical seed: skip close to baseline and above fused.

    Reduced scale (synthetic data, few epochs) because the sandbox has one
    CPU; measured numbers are reported rather than compared to any
    full-scale result.
    """
    with criterion(8, "accuracy parity"):
        train_split, val_split = data.load_dataset(
            "synthetic", seed=0, synthetic_n=256, synthetic_val_n=128)
        epochs = 8
        arms = {
            "baseline": DropSchedule(),
            "skip": DropSchedule(stages=((3, 0.55),), skip_target=5,
                                 mode=MODE_SKIP, warmup_epochs=2),
            "fused": DropSchedule(stages=((3, 0.45),), mode=MODE_FUSE,
                                  warmup_epochs=2),
        }
        top1 = {}
        for name, schedule in arms.items():
            metrics = _train_arm(schedule, train_split, val_split, epochs,
                                 seed=0)
            top1[name] = metrics.final_val_top1
            _say(f"  parity arm {name}: val top-1 {top1[name]:.2f}%")
        assert top1["skip"] >= top1["baseline"] - 2.0, (
            f"skip {top1['skip']:.2f} more than 2 points below "
            f"baseline {top1['baseline']:.2f}")
        assert top1["skip"] >= top1["fused"], (
            f"skip {top1['skip']:.2f} below fused {top1['fused']:.2f}")


def test_criterion_09_warmup_gating():
    """Token histograms flip from dense to reduced exactly at the boundary."""
    with criterion(9, "warm-up gating"):
        split = data.synthetic(0, 64, classes=10, image_size=32)
        dense = [DESK.num_tokens] * DESK.depth
        accs = {}
        for warmup in (2, 0):
            model = ViT(DESK, seed=0)
            schedule = DropSchedule(stages=((3, 0.55),), skip_target=5,
                                    mode=MODE_SKIP, warmup_epochs=warmup)
            cfg = TrainConfig(batch_size=64, epochs=4, learning_rate=1e-3,
                              seed=0)
            metrics = trainer.train(model, schedule, cfg, split)
            for record in metrics.epochs:
                reduced = record.attn_tokens != dense
                assert reduced == (record.epoch >= warmup), (
                    f"warmup {warmup}: epoch {record.epoch} gating wrong "
                    f"({record.attn_tokens})")
                if reduced:
                    assert record.kept_patches == {3: 29}
            accs[warmup] = metrics.final_train_top1
        # Reported, not asserted: the warm-up accuracy effect at this scale.
        _say(f"  warm-up 2 vs 0 train top-1: {accs[2]:.2f}% vs "
             f"{accs[0]:.2f}% (delta {accs[2] - accs[0]:+.2f})")


def test_criterion_10_reproducibility(tmp_path):
    """Same config and seed twice gives byte-identical metrics output."""
    with criterion(10, "reproducibility"):
        argv_tail = ["--set", "model.preset=tiny",
                     "--set", "dataset.train_n=32",
                     "--set", "dataset.val_n=8",
                     "--set", "train.batch_size=8",
                     "--set", "train.epochs=2", "--set", "seed=5"]
        blobs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert cli.main(["train", "--out", str(out)] + argv_tail) == 0
            blobs.append((
                (out / "metrics.jsonl").read_bytes(),
                (out / "resolved_config.txt").read_bytes(),
                json.loads((out / "result.json").read_text())["top1"],
            ))
        assert blobs[0][0] == blobs[1][0], "metrics.jsonl differs across runs"
        assert blobs[0][1] == blobs[1][1], "resolved config differs"
        assert blobs[0][2] == blobs[1][2]
