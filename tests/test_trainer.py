"""Training loop tests: smoke runs, determinism, evaluation, benchmarking."""

import dataclasses
import json
import os
import platform
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from tokenskip import cli, config, data, flops, tokendrop, trainer
from tokenskip import tensor as T
from tokenskip.optim import AdamW
from tokenskip.tokendrop import PAST_WARMUP, DropSchedule, MODE_SKIP
from tokenskip.trainer import TrainConfig
from tokenskip.vit import ModelConfig, ViT

TINY = ModelConfig(depth=2, heads=2, embed_dim=8,
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
        metrics = trainer.train(model, DropSchedule(), tiny_cfg(),
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
            trainer.train(model, DropSchedule(), tiny_cfg(), split)

    def test_same_seed_metrics_are_byte_identical(self, tmp_path):
        out = []
        for run in ("a", "b"):
            model = ViT(TINY, seed=2)
            trainer.train(model, DropSchedule(), tiny_cfg(),
                          tiny_split(), out_dir=tmp_path / run)
            out.append((tmp_path / run / "metrics.jsonl").read_bytes())
        assert out[0] == out[1]

    def test_different_seed_changes_metrics(self, tmp_path):
        out = []
        for seed in (0, 1):
            model = ViT(TINY, seed=2)
            trainer.train(model, DropSchedule(), tiny_cfg(seed=seed),
                          tiny_split(), out_dir=tmp_path / str(seed))
            out.append((tmp_path / str(seed) / "metrics.jsonl").read_bytes())
        assert out[0] != out[1]

    def test_max_steps_truncates(self):
        model = ViT(TINY, seed=0)
        metrics = trainer.train(model, DropSchedule(),
                                tiny_cfg(epochs=10), tiny_split(),
                                max_steps=4)
        assert len(metrics.step_losses) == 4

    def test_epoch_loss_is_the_mean_of_its_steps(self):
        # 24 samples in batches of 8: three steps an epoch, the second
        # epoch cut after its first step.
        model = ViT(TINY, seed=0)
        metrics = trainer.train(model, DropSchedule(), tiny_cfg(epochs=10),
                                tiny_split(), max_steps=4)
        losses = metrics.step_losses
        assert [r.train_loss for r in metrics.epochs] == [
            float(np.mean(losses[:3])), float(np.mean(losses[3:]))]

    @pytest.mark.parametrize("max_steps", [0, -3])
    def test_max_steps_below_one_is_rejected(self, tmp_path, max_steps):
        model = ViT(TINY, seed=0)
        before = model.params["head.w"].data.copy()
        with pytest.raises(ValueError, match="max_steps"):
            trainer.train(model, DropSchedule(), tiny_cfg(), tiny_split(),
                          out_dir=tmp_path / "run", max_steps=max_steps)
        assert not (tmp_path / "run").exists()
        np.testing.assert_array_equal(model.params["head.w"].data, before)

    def test_stop_at_train_top1(self):
        model = ViT(TINY, seed=0)
        metrics = trainer.train(model, DropSchedule(),
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
        metrics = trainer.train(model, DropSchedule(), small, tiny_split())
        assert len(metrics.epochs) == 1

    def test_invalid_schedule_is_rejected(self):
        model = ViT(TINY, seed=0)
        bad = DropSchedule(stages=((0, 0.5),), skip_target=1,
                           mode=tokendrop.MODE_SKIP)
        with pytest.raises(ValueError):
            trainer.train(model, bad, tiny_cfg(), tiny_split())

    def test_empty_val_split_is_rejected_before_any_step(self, tmp_path,
                                                         monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("a train step ran")

        monkeypatch.setattr(trainer, "_train_step", no_step)
        model = ViT(TINY, seed=0)
        split = tiny_split()
        empty = data.Split(split.images[:0], split.labels[:0])
        with pytest.raises(ValueError, match="split"):
            trainer.train(model, DropSchedule(), tiny_cfg(), split, empty,
                          out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_dropping_reduces_attention_tokens(self, tmp_path):
        config = ModelConfig(depth=4, heads=2, embed_dim=8,
                             patch_size=2, image_size=8, num_classes=3)
        model = ViT(config, seed=0)
        schedule = DropSchedule(stages=((1, 0.5),), skip_target=3,
                                mode=MODE_SKIP)
        metrics = trainer.train(model, schedule, tiny_cfg(epochs=1),
                                data.synthetic(0, 16, classes=3, image_size=8))
        tokens = metrics.epochs[0].attn_tokens
        assert tokens[0] == 17 and tokens[2] < 17 and tokens[3] == 17


@pytest.mark.parametrize("name", ["learning_rate", "warmup_lr"])
def test_train_config_rejects_a_zero_rate(name):
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        TrainConfig(**{name: 0.0})


class TestEvaluate:
    def test_matches_manual_forward(self):
        model = ViT(TINY, seed=4)
        split = tiny_split(3, 20)
        acc = trainer.evaluate(model, split, batch_size=7)
        logits, _ = model.forward(split.images, DropSchedule())
        expected = 100.0 * (logits.data.argmax(axis=1) == split.labels).mean()
        assert acc == pytest.approx(expected)

    def test_empty_split_is_rejected(self):
        split = tiny_split()
        empty = data.Split(split.images[:0], split.labels[:0])
        with pytest.raises(ValueError, match="empty split"):
            trainer.evaluate(ViT(TINY, seed=0), empty)

    def test_schedule_defaults_to_none(self):
        model = ViT(TINY, seed=4)
        split = tiny_split(3, 8)
        assert trainer.evaluate(model, split) == trainer.evaluate(
            model, split, DropSchedule())

    @pytest.mark.parametrize("schedule", [
        DropSchedule(((5, 0.5),), mode=tokendrop.MODE_FUSE),
        DropSchedule(((0, 0.5),), mode=tokendrop.MODE_FUSE),
        DropSchedule(mode="bogus"),
    ], ids=["fuse_at_5", "fuse_at_0", "bogus_mode"])
    def test_schedule_that_does_not_fit_the_model_is_rejected(self, schedule):
        with pytest.raises(ValueError):
            trainer.evaluate(ViT(TINY, seed=0), tiny_split(), schedule)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_is_rejected(self, batch_size, monkeypatch):
        def no_batch(*args):
            raise AssertionError("a batch ran")

        monkeypatch.setattr(trainer, "_eval_logits", no_batch)
        with pytest.raises(ValueError, match="batch_size"):
            trainer.evaluate(ViT(TINY, seed=0), tiny_split(),
                             batch_size=batch_size)


SKIP = {"schedule.mode": "skip", "schedule.drop_ratios": "0.55"}
FUSE = {"schedule.mode": "fuse", "schedule.drop_ratios": "0.45"}
# An odd width and class count: its shards' GEMMs meet other kernel tails
# than desk's or tiny's.
ODD = {"model.depth": "3", "model.heads": "3", "model.embed_dim": "48",
       "model.patch_size": "8", "model.num_classes": "7"}

# Models and schedules whose eval batches are sharded across threads: desk
# with every schedule kind, the tiny preset (one layer deeper, so it can
# fuse) and the odd shape.
SHARD_CASES = {
    "desk_dense": {"model.preset": "desk", "schedule.mode": "none"},
    "desk_skip": {"model.preset": "desk", **SKIP, "schedule.drop_layers": "3",
                  "schedule.skip_target": "5"},
    "desk_two_stage": {"model.preset": "desk", "schedule.mode": "skip",
                       "schedule.drop_layers": "2,3",
                       "schedule.drop_ratios": "0.3,0.3",
                       "schedule.skip_target": "5"},
    "desk_fuse": {"model.preset": "desk", **FUSE, "schedule.drop_layers": "3"},
    "tiny_dense": {"model.preset": "tiny", "schedule.mode": "none"},
    "tiny3_fuse": {"model.preset": "tiny", "model.depth": "3", **FUSE,
                   "schedule.drop_layers": "1"},
    "odd_skip": {**ODD, **SKIP, "schedule.drop_layers": "1",
                 "schedule.skip_target": "2"},
    "odd_fuse": {**ODD, **FUSE, "schedule.drop_layers": "1"},
}


def shard_case(name, n):
    cfg = config.build(SHARD_CASES[name])
    return (ViT(cfg.model, seed=2), cfg.schedule,
            data.synthetic(3, n, classes=cfg.model.num_classes,
                           image_size=cfg.model.image_size))


@pytest.mark.parametrize("name", list(SHARD_CASES))
class TestShardedEvaluate:
    def test_shard_logits_are_the_whole_batch_logits(self, name, monkeypatch):
        # 2, 3 and 4 shards (16 samples each, the last the rest) of batches
        # of 64 and 65, and 2 of 47 (16 and 31).
        model, schedule, split = shard_case(name, 65)
        for n in (64, 65, 47):
            images = split.images[:n]
            with T.no_grad():
                whole, _ = model.forward(images, schedule)
                for cpus in (2, 3, 64):
                    monkeypatch.setattr(trainer, "_cpus", lambda: cpus)
                    shards = trainer._eval_logits(model, images, schedule,
                                                  PAST_WARMUP)
                    assert np.array_equal(shards, whole.data), (n, cpus)

    def test_shards_are_aligned_blocks_of_the_batch(self, name, monkeypatch):
        # Batches under 32 samples (the last of 65, and 3) run whole, and so
        # does every batch of a model whose 16-sample shards' products are
        # too small for a train step to shard (``_row_macs``): the tiny
        # preset and the odd shape.
        model, schedule, split = shard_case(name, 65)
        monkeypatch.setattr(trainer, "_cpus", lambda: 64)
        if name.startswith("desk"):
            sizes = {64: [16] * 4, 65: [1] + [16] * 4, 47: [16, 31], 3: [3]}
        else:
            sizes = {64: [64], 65: [1, 64], 47: [47], 3: [3]}
        for n, shards in sizes.items():
            part = data.Split(split.images[:n], split.labels[:n])
            serial = 0
            with T.no_grad():
                for lo in range(0, n, 64):
                    logits, _ = model.forward(part.images[lo:lo + 64], schedule)
                    serial += int((logits.data.argmax(axis=1)
                                   == part.labels[lo:lo + 64]).sum())
            calls = _encodes(model, monkeypatch)
            top1 = trainer.evaluate(model, part, schedule, batch_size=64)
            monkeypatch.delattr(model, "encode")
            assert top1 == 100.0 * serial / n
            if trainer._openblas_threads() is not None:
                assert sorted(calls) == shards, n


def test_tiny_eval_logits_do_not_depend_on_the_cpu_count(monkeypatch):
    # 640-sample shards of the tiny preset's products fall to OpenBLAS's
    # small-matrix kernels, whose logits differ in their last bits from the
    # whole batch's; evaluate runs such a batch whole, as a train step would.
    model, schedule, split = shard_case("tiny_dense", 1280)
    logits = {}
    with T.no_grad():
        for cpus in (1, 2, 3):
            monkeypatch.setattr(trainer, "_cpus", lambda: cpus)
            logits[cpus] = trainer._eval_logits(model, split.images, schedule,
                                                PAST_WARMUP)
    assert np.array_equal(logits[2], logits[1])
    assert np.array_equal(logits[3], logits[1])


def test_replaced_package_code_runs_the_batch_whole(monkeypatch):
    # A wrapper put in place of a package function from outside (a
    # profiler's, say) need not be thread-safe, so it sees every call on the
    # calling thread, with the whole batch.
    model, schedule, split = shard_case("desk_fuse", 64)
    monkeypatch.setattr(trainer, "_cpus", lambda: 8)
    gelu, calls = T.gelu, []

    def wrapped(t):
        calls.append((threading.get_ident(), len(t.data)))
        return gelu(t)

    monkeypatch.setattr(T, "gelu", wrapped)
    top1 = trainer.evaluate(model, split, schedule)
    assert calls == [(threading.get_ident(), 64)] * model.config.depth
    monkeypatch.setattr(T, "gelu", gelu)
    assert trainer.evaluate(model, split, schedule) == top1


def test_evaluate_restores_the_blas_thread_count(monkeypatch):
    controls = trainer._openblas_threads()
    if controls is None:
        pytest.skip("no OpenBLAS thread controls found")
    get, set_ = controls
    model, schedule, split = shard_case("desk_fuse", 32)
    monkeypatch.setattr(trainer, "_cpus", lambda: 2)
    during = []

    def encode(*args, **kwargs):
        during.append(get())
        return ViT.encode(model, *args, **kwargs)

    monkeypatch.setattr(model, "encode", encode)
    saved = get()
    try:
        for threads in (2, 3):
            set_(threads)
            trainer.evaluate(model, split, schedule)
            assert get() == threads
    finally:
        set_(saved)
    assert during == [1] * 4


def test_macs_of_a_sharded_evaluate_are_all_counted(monkeypatch):
    # More shards than CPUs and a short switch interval give a lost update
    # every chance to happen.
    model, schedule, split = shard_case("desk_fuse", 64)
    monkeypatch.setattr(trainer, "_cpus", lambda: 8)
    expected = (flops.estimate_flops(model.config, schedule).schedule_total
                * len(split))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            with flops.count_macs() as counter:
                trainer.evaluate(model, split, schedule)
            assert counter.total == expected
    finally:
        sys.setswitchinterval(interval)


def _blas_at_one_thread():
    """(get, set) OpenBLAS thread controls, or skip the test without them."""
    controls = trainer._openblas_threads()
    if controls is None:
        pytest.skip("no OpenBLAS thread controls found")
    return controls


def _three_steps(model, schedule, images, labels):
    """Three train steps; the first's loss, logits and parameter gradients."""
    opt = AdamW(model.params, weight_decay=0.05)
    first = None
    for step in range(3):
        loss, logits, _ = trainer._train_step(model, schedule, opt, images,
                                              labels, PAST_WARMUP, step, 1e-3)
        if first is None:
            first = (loss, logits.copy(),
                     {k: p.grad.copy() for k, p in model.params.items()})
    return first


def _encodes(model, monkeypatch):
    """The batch sizes ``model.encode`` is called with from now on; a whole
    step's forward encodes its batch in one call."""
    calls = []

    def encode(images, *args, **kwargs):
        calls.append(len(images))
        return ViT.encode(model, images, *args, **kwargs)

    monkeypatch.setattr(model, "encode", encode)
    return calls


# The eval shard cases; desk fuse has no drop-after-FFN variant, since
# schedule.drop_after_ffn is not a key (tests/test_cli.py). Steps whose
# products are too small to shard (``_shards``) run whole and hold
# trivially: the tiny preset's always, the odd shape's below 40 or 49
# samples a shard, so it also runs at 192 (2 and 3 shards, and 4 for fuse).
@pytest.mark.parametrize("name,n", [
    (name, n) for name in SHARD_CASES for n in (32, 48, 64, 65)]
    + [("odd_skip", 192), ("odd_fuse", 192)])
def test_sharded_train_step_has_the_whole_steps_bits(name, n, monkeypatch):
    # Each parameter's gradient is summed once over the whole batch's rows,
    # so at one BLAS thread 2, 3 and 4 shards give the bits of the whole
    # step: the loss, the logits, every gradient and, after three AdamW
    # steps, every parameter. (A step that runs whole keeps the thread
    # count it is given, and its bits may depend on it.)
    get, set_ = _blas_at_one_thread()
    _, schedule, split = shard_case(name, n)
    images, labels = split.images, split.labels
    runs = {}
    saved = get()
    try:
        set_(1)
        for cpus in (1, 2, 3, 4):
            monkeypatch.setattr(trainer, "_cpus", lambda: cpus)
            model = shard_case(name, n)[0]
            runs[cpus] = (*_three_steps(model, schedule, images, labels),
                          {k: p.data for k, p in model.params.items()})
    finally:
        set_(saved)
    loss, logits, grads, params = runs.pop(1)
    for cpus, run in runs.items():
        assert run[0] == loss, cpus
        assert np.array_equal(run[1], logits), cpus
        for key, grad in grads.items():
            assert np.array_equal(run[2][key], grad), (cpus, key)
        for key, param in params.items():
            assert np.array_equal(run[3][key], param), (cpus, key)


def test_a_train_step_runs_as_aligned_shards(monkeypatch):
    _blas_at_one_thread()
    model, schedule, split = shard_case("desk_skip", 65)
    monkeypatch.setattr(trainer, "_cpus", lambda: 4)
    calls = _encodes(model, monkeypatch)
    for n, shards in {65: [16, 16, 16, 17], 48: [16, 16, 16], 31: [31]}.items():
        calls.clear()
        trainer._train_step(model, schedule, AdamW(model.params),
                            split.images[:n], split.labels[:n], PAST_WARMUP,
                            0, 1e-3)
        assert sorted(calls) == shards, n


# A shard runs only if its smallest row-split product, shard samples times
# ``_row_macs``, is above the small-matrix bound: 393216 MACs a sample at
# desk (its patch projection), 320 for tiny, 20736 for odd skip.
@pytest.mark.parametrize("name,n,cpus,shards", [
    ("desk_dense", 32, 2, [16, 16]),
    ("tiny_dense", 64, 4, [64]),
    ("tiny3_fuse", 65, 4, [65]),
    ("odd_skip", 64, 2, [64]),
    ("odd_skip", 130, 2, [64, 66]),
    ("odd_skip", 130, 3, [130]),
])
def test_a_train_step_shards_only_products_above_the_small_gemm_bound(
        name, n, cpus, shards, monkeypatch):
    _blas_at_one_thread()
    model, schedule, split = shard_case(name, n)
    monkeypatch.setattr(trainer, "_cpus", lambda: cpus)
    calls = _encodes(model, monkeypatch)
    trainer._train_step(model, schedule, AdamW(model.params), split.images,
                        split.labels, PAST_WARMUP, 0, 1e-3)
    assert sorted(calls) == shards


def _fail_in_one_shard(model, batch, where, start, monkeypatch):
    """Make the encode of the shard of ``batch`` that starts at sample
    ``start`` raise, or a closure in the middle of its graph raise in
    backward; return the injected error."""
    error = RuntimeError(f"injected {where} fault")

    def encode(images, *args, **kwargs):
        ours = images.ctypes.data == batch[start:].ctypes.data
        if ours and where == "forward":
            raise error
        tokens, diag = ViT.encode(model, images, *args, **kwargs)
        if ours:
            def boom(g):
                raise error

            nodes = T.ComputeTape(tokens.embeddings).nodes
            nodes[len(nodes) // 2].backward_fn = boom
        return tokens, diag

    monkeypatch.setattr(model, "encode", encode)
    return error


# Three shards of 64 samples: 16, 16 and 32, the first on the calling thread.
@pytest.mark.parametrize("start", [0, 32], ids=["first", "last"])
@pytest.mark.parametrize("where", ["forward", "backward"])
def test_a_failed_shard_fails_the_step_and_changes_nothing(where, start,
                                                            monkeypatch):
    _blas_at_one_thread()
    model, schedule, split = shard_case("desk_skip", 64)
    opt = AdamW(model.params)
    monkeypatch.setattr(trainer, "_cpus", lambda: 3)
    trainer._train_step(model, schedule, opt, split.images, split.labels,
                        PAST_WARMUP, 0, 1e-3)
    before = [{k: a.copy() for k, a in state.items()}
              for state in ({k: p.data for k, p in model.params.items()},
                            opt.state.m, opt.state.v)]
    error = _fail_in_one_shard(model, split.images, where, start, monkeypatch)
    raised = []

    def step():
        try:
            trainer._train_step(model, schedule, opt, split.images,
                                split.labels, PAST_WARMUP, 1, 1e-3)
        except RuntimeError as exc:
            raised.append(exc)

    runner = threading.Thread(target=step)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "a shard is still blocked"
    assert len(raised) == 1 and error in (raised[0], raised[0].__cause__)
    assert not [t for t in threading.enumerate()
                if t.name.startswith("tokenskip-shard")]
    after = ({k: p.data for k, p in model.params.items()}, opt.state.m,
             opt.state.v)
    for old, new in zip(before, after):
        for key, array in old.items():
            assert np.array_equal(new[key], array), key
    assert opt.state.step == 1


class TestBenchmark:
    def test_returns_positive_rate(self):
        model = ViT(TINY, seed=0)
        speed = trainer.benchmark(model, DropSchedule(),
                                  tiny_cfg(batch_size=4))
        assert speed.samples_per_sec > 0
        assert np.isfinite(speed.saving)

    def test_leaves_weights_untouched(self):
        model = ViT(TINY, seed=0)
        before = {k: p.data.copy() for k, p in model.params.items()}
        trainer.benchmark(model, DropSchedule(), tiny_cfg(batch_size=4))
        for k, p in model.params.items():
            np.testing.assert_array_equal(p.data, before[k])

    def test_rejected_schedule_runs_no_step(self, monkeypatch):
        arms = []
        monkeypatch.setattr(trainer, "_train_step",
                            lambda model, schedule, *rest: arms.append(schedule))
        model = ViT(TINY, seed=0)
        fuse_at_last = DropSchedule(stages=((1, 0.5),), mode=tokendrop.MODE_FUSE)
        with pytest.raises(ValueError, match="final layer"):
            trainer.benchmark(model, fuse_at_last, tiny_cfg(batch_size=4))
        assert arms == []

    def test_infinite_loss_fails(self):
        # As in the train test, the seeded batch holds a label other than
        # 0: the loss is +inf while every gradient stays finite.
        model = ViT(TINY, seed=0)
        model.params["head.b"].data[:] = -3e38
        model.params["head.b"].data[0] = 3e38
        with np.errstate(over="ignore"), pytest.raises(
                RuntimeError, match="non-finite loss inf"):
            trainer.benchmark(model, DropSchedule(), tiny_cfg(batch_size=4))


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


# Fresh process: train desk skip 0.55@3->5 for one epoch at batch argv[2]
# into argv[1], then print the OpenBLAS thread count it ran with ("unknown"
# where unreadable).
_BLAS_PROBE = textwrap.dedent("""
    import ctypes, glob, os, sys
    import numpy as np
    from tokenskip import cli, config, trainer
    from tokenskip.vit import ViT

    cfg = config.build({
        "model.preset": "desk", "schedule.mode": "skip",
        "schedule.drop_layers": "3", "schedule.drop_ratios": "0.55",
        "schedule.skip_target": "5", "dataset.train_n": "256",
        "dataset.val_n": "64", "train.epochs": "1",
        "train.batch_size": sys.argv[2], "seed": "7"})
    train_split, val_split = cli._load_data(cfg)
    model = ViT(cfg.model, seed=cfg.seed)
    trainer.train(model, cfg.schedule, cfg.train, train_split, val_split,
                  out_dir=sys.argv[1])

    def blas_threads():
        libs = os.path.join(os.path.dirname(np.__file__), os.pardir,
                            "numpy.libs")
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_",
                         "openblas_get_num_threads64_",
                         "openblas_get_num_threads"):
                if hasattr(lib, name):
                    return getattr(lib, name)()
        return "unknown"

    print(blas_threads())
""")


# Batch 32 runs as two shards on two CPUs and whole on one; whole, its
# bytes do not depend on the thread count either. Batch 48 run whole does
# (32 of the 104 parameter gradients differ in their last bits), so it is
# promised only where it runs as shards.
def test_bytes_do_not_depend_on_blas_threads(tmp_path):
    src = str(Path(trainer.__file__).resolve().parents[1])
    batches = [32, 48] if trainer._cpus() >= 2 else [32]
    for batch in batches:
        outputs = {}
        for threads in (1, 2):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p)
            out = tmp_path / f"batch{batch}-threads{threads}"
            proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE,
                                   str(out), str(batch)], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            ran_with = proc.stdout.split()[-1]
            if ran_with == "unknown":
                pytest.skip("the OpenBLAS thread count cannot be read")
            assert int(ran_with) == threads
            outputs[threads] = [(out / name).read_bytes()
                                for name in (trainer.METRICS_FILE, "model.ckpt")]
        assert outputs[1] == outputs[2], batch


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
    # The one-arena setting stands apart from both.
    mmap_32m = (trainer._M_MMAP_THRESHOLD, 32 << 20)
    trim_1g = (trainer._M_TRIM_THRESHOLD, 1 << 30)
    one_arena = (trainer._M_ARENA_MAX, 1)
    for accepts, calls in (({mmap_32m}, [mmap_32m, trim_1g, one_arena]),
                           (set(), [mmap_32m, one_arena])):
        libc = _FakeLibc(accepts)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainer.ctypes, "CDLL", lambda name: libc)
            trainer._keep_heap()
        assert libc.calls == calls


@pytest.mark.parametrize("error", [OSError, TypeError])
def test_keep_heap_is_a_no_op_without_a_loadable_c_library(monkeypatch, error):
    def cdll(name):
        raise error("no C library")
    monkeypatch.setattr(trainer.ctypes, "CDLL", cdll)
    trainer._keep_heap()
    monkeypatch.setattr(trainer.ctypes, "CDLL", lambda name: object())
    trainer._keep_heap()
