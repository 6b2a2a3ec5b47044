import numpy as np
import pytest

from tokenskip import trainer
from tokenskip.flops import count_macs, estimate_flops, measure_forward_macs
from tokenskip.optim import AdamW
from tokenskip.tokendrop import DropSchedule, MODE_FUSE, MODE_SKIP
from tokenskip.vit import ModelConfig, ViT


def cfg(depth, **kw):
    base = dict(depth=depth, heads=2, embed_dim=16, patch_size=2, image_size=4,
                num_classes=3)
    base.update(kw)
    return ModelConfig(**base)


def test_tiny_hand_example():
    # D=8, one layer, 5 tokens: attention 4*5*64 + 2*25*8, FFN 8*5*64.
    config = cfg(1, heads=2, embed_dim=8)
    report = estimate_flops(config, DropSchedule())
    layer = report.layers[0]
    assert layer.attention_macs == 1680
    assert layer.ffn_macs == 2560


def test_schedule_none_saving_zero():
    report = estimate_flops(cfg(4), DropSchedule())
    assert report.saving_fraction == 0.0
    assert report.schedule_total == report.baseline_total


def test_schedule_total_never_exceeds_baseline():
    schedule = DropSchedule(stages=((2, 0.5),), skip_target=5, mode=MODE_SKIP)
    report = estimate_flops(cfg(6), schedule)
    assert report.schedule_total <= report.baseline_total
    assert 0.0 <= report.saving_fraction < 1.0


def test_paper_shape_saving_is_positive():
    config = ModelConfig(depth=12, heads=6, embed_dim=384, patch_size=16,
                         image_size=224, num_classes=1000)
    schedule = DropSchedule(stages=((6, 0.55),), skip_target=11,
                            mode=MODE_SKIP)
    report = estimate_flops(config, schedule)
    assert 0.05 < report.saving_fraction < 0.5


SCHEDULES = {
    "none": lambda depth: DropSchedule(),
    "single": lambda depth: DropSchedule(
        stages=((max(1, depth // 2), 0.55),), skip_target=depth - 1,
        mode=MODE_SKIP),
    "two-stage": lambda depth: DropSchedule(
        stages=((max(1, depth // 3), 0.3), (max(2, depth // 2), 0.3)),
        skip_target=depth - 1, mode="skip"),
    "fuse": lambda depth: DropSchedule(
        stages=((max(1, depth // 2), 0.45),), mode=MODE_FUSE),
}


# Depth 2 admits no drop layer (layer 0 and the final layer are excluded),
# so it runs only the dense schedule.
@pytest.mark.parametrize("name,depth",
                         [(name, 12) for name in SCHEDULES] + [("none", 2)])
def test_estimate_matches_instrumented_counter(name, depth):
    schedule = SCHEDULES[name](depth)
    config = cfg(depth)
    model = ViT(config, seed=0)
    report = estimate_flops(config, schedule)
    measured = measure_forward_macs(model, schedule)
    assert report.schedule_total == measured


def test_estimate_matches_counter_single_layer():
    config = cfg(1)
    model = ViT(config, seed=1)
    report = estimate_flops(config, DropSchedule())
    assert report.schedule_total == measure_forward_macs(model, DropSchedule())


# perfbench's macs check counts a whole train step against the forward
# estimate, so backward's GEMMs, the remakes' included, must report nothing.
# Desk at batch 32 on two CPUs runs as two shards, each counting on its own
# thread.
DESK = ModelConfig(depth=6, heads=4, embed_dim=128, patch_size=4,
                   image_size=32, num_classes=10)


@pytest.mark.parametrize(
    "name,sharded", [(name, False) for name in sorted(SCHEDULES)]
    + [(name, True) for name in sorted(SCHEDULES)],
    ids=sorted(SCHEDULES) + [f"desk-batch32-2cpus-{name}"
                             for name in sorted(SCHEDULES)])
def test_a_train_step_counts_only_its_forward(name, sharded, monkeypatch):
    config, batch = (DESK, 32) if sharded else (cfg(12), 4)
    monkeypatch.setattr(trainer, "_cpus", lambda: 2 if sharded else 1)
    schedule = SCHEDULES[name](config.depth)
    model = ViT(config, seed=0)
    rng = np.random.default_rng(0)
    size = config.image_size
    images = rng.normal(size=(batch, 3, size, size)).astype(np.float32)
    encodes = []

    def encode(images, *args, **kwargs):
        encodes.append(len(images))
        return ViT.encode(model, images, *args, **kwargs)

    monkeypatch.setattr(model, "encode", encode)
    with count_macs() as counter:
        trainer._train_step(model, schedule, AdamW(model.params), images,
                            np.arange(batch) % config.num_classes, 0, 0, 1e-3)
    assert counter.total == batch * estimate_flops(config, schedule).schedule_total
    if trainer._openblas_threads() is not None:
        assert encodes == ([16, 16] if sharded else [batch])
