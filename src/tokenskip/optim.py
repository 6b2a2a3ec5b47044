"""AdamW with decoupled weight decay, plus the warmup/cosine LR schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor


@dataclass
class OptimizerState:
    """Per-parameter Adam moment accumulators and the shared step counter."""
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8


class AdamW:
    def __init__(self, params: dict[str, Tensor], learning_rate: float,
                 weight_decay: float = 0.0, betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.state = OptimizerState(betas=betas, eps=eps)
        for name, p in params.items():
            self.state.m[name] = np.zeros_like(p.data)
            self.state.v[name] = np.zeros_like(p.data)

    def step(self, lr: float | None = None) -> None:
        """One decoupled-weight-decay update over all parameters with gradients."""
        lr = self.learning_rate if lr is None else lr
        s = self.state
        s.step += 1
        b1, b2 = s.betas
        c1 = 1.0 - b1 ** s.step
        c2 = 1.0 - b2 ** s.step
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if not np.isfinite(g).all():
                raise FloatingPointError(
                    f"non-finite gradient in parameter {name!r}")
            # In place, with the roundings of
            #   m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
            #   p -= lr * (m / c1 / (sqrt(v / c2) + eps) + wd * p)
            m, v = s.m[name], s.v[name]
            upd = np.multiply(g, 1.0 - b1)
            m *= b1
            m += upd
            np.multiply(g, 1.0 - b2, out=upd)
            upd *= g
            v *= b2
            v += upd
            np.divide(v, c2, out=upd)
            np.sqrt(upd, out=upd)
            upd += s.eps
            np.divide(m / c1, upd, out=upd)
            upd += self.weight_decay * p.data
            upd *= lr
            p.data -= upd

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


def lr_at(epoch: int, step: int, steps_per_epoch: int, *,
          learning_rate: float, warmup_lr: float, lr_warmup_epochs: int,
          epochs: int) -> float:
    """Linear ramp from warmup_lr to learning_rate, then cosine back down.

    The ramp covers lr_warmup_epochs (step-resolved); cosine decay ends at
    warmup_lr exactly on the final optimizer step.
    """
    total_steps = epochs * steps_per_epoch
    warmup_steps = lr_warmup_epochs * steps_per_epoch
    gs = epoch * steps_per_epoch + step
    if gs < warmup_steps:
        return warmup_lr + (learning_rate - warmup_lr) * gs / warmup_steps
    last = total_steps - 1
    if last <= warmup_steps:
        return learning_rate
    phase = (gs - warmup_steps) / (last - warmup_steps)
    return warmup_lr + 0.5 * (learning_rate - warmup_lr) * (1.0 + math.cos(math.pi * phase))
