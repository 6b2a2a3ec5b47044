"""Analytic compute-cost model (MACs) plus a runtime counter to verify it.

Costs are multiply-accumulates of the matrix products in the defined forward
pass, per sample. Elementwise work (norms, softmax, GELU, residuals) is not
counted on either side, so the analytic model and the instrumented counter
must agree exactly.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import CHANNELS
from .tokendrop import PAST_WARMUP, DropSchedule, plan
from .vit import FFN_RATIO, ModelConfig, ViT


class MacCounter:
    """Accumulates multiply-accumulate counts reported by matmul, from any
    thread (evaluate runs its shards concurrently)."""

    def __init__(self):
        self.total = 0
        self._lock = threading.Lock()

    def add(self, macs: int) -> None:
        with self._lock:
            self.total += int(macs)


@contextmanager
def count_macs():
    """Route matmul MAC counts into a fresh counter for the duration."""
    counter = MacCounter()
    saved = T._MAC_COUNTER
    T._MAC_COUNTER = counter
    try:
        yield counter
    finally:
        T._MAC_COUNTER = saved


@dataclass
class LayerCost:
    layer: int
    attention_macs: int
    ffn_macs: int
    extra_macs: int = 0  # token fusion at this layer, if any

    @property
    def total(self) -> int:
        return self.attention_macs + self.ffn_macs + self.extra_macs


@dataclass
class CostReport:
    """Per-layer MAC accounting for a schedule against the dense baseline."""
    layers: list = field(default_factory=list)      # LayerCost per layer
    patch_embed_macs: int = 0
    head_macs: int = 0
    baseline_total: int = 0

    @property
    def schedule_total(self) -> int:
        return (self.patch_embed_macs + self.head_macs
                + sum(l.total for l in self.layers))

    @property
    def saving_fraction(self) -> float:
        return 1.0 - self.schedule_total / self.baseline_total


def _attention_macs(n: int, config: ModelConfig) -> int:
    d = config.embed_dim
    return 4 * n * d * d + 2 * n * n * d


def _ffn_macs(n: int, config: ModelConfig) -> int:
    d = config.embed_dim
    return 2 * FFN_RATIO * n * d * d


def token_counts(config: ModelConfig, schedule: DropSchedule):
    """Live token counts per layer: (attention input, FFN input, fused).

    Read off the post-warm-up ``tokendrop.plan``; ``fused`` is the dropped
    token count entering a fusion at that layer (0 elsewhere).
    """
    return [(p.attn_tokens, p.ffn_tokens, p.fused)
            for p in plan(schedule, config)]


def estimate_flops(config: ModelConfig, schedule: DropSchedule) -> CostReport:
    """Exact per-sample MAC counts of the forward pass under a schedule."""
    report = CostReport()
    d = config.embed_dim
    report.patch_embed_macs = (config.num_patches
                               * CHANNELS * config.patch_size ** 2 * d)
    report.head_macs = d * config.num_classes
    for layer, (attn_n, ffn_n, fused_k) in enumerate(token_counts(config, schedule)):
        report.layers.append(LayerCost(
            layer=layer,
            attention_macs=_attention_macs(attn_n, config),
            ffn_macs=_ffn_macs(ffn_n, config),
            extra_macs=fused_k * d,
        ))
    full = config.num_tokens
    report.baseline_total = (
        report.patch_embed_macs + report.head_macs
        + config.depth * (_attention_macs(full, config) + _ffn_macs(full, config))
    )
    return report


def measure_forward_macs(model: ViT, schedule: DropSchedule) -> int:
    """Instrumented oracle: run a real single-sample forward and count MACs."""
    c = model.config
    rng = np.random.default_rng(0)
    image = rng.normal(size=(1, CHANNELS, c.image_size,
                             c.image_size)).astype(np.float32)
    with T.no_grad(), count_macs() as counter:
        model.forward(image, schedule, epoch=PAST_WARMUP)
    return counter.total
