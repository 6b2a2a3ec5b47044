"""Attention-guided token dropping with positional skip-connection reinsertion.

The drop path ranks patch tokens by the head-averaged CLS attention row,
removes the lowest-ranked fraction after a layer's attention sublayer, parks
the removed embeddings in a stash, and reinserts them unchanged at their
original positions in front of a later layer. A fused-token mode replaces the
dropped set with a single importance-weighted average instead (no reinsertion),
for baseline comparison.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .vit import AttentionRecord, ModelConfig, TokenBatch

log = logging.getLogger(__name__)

MODE_NONE = "none"
MODE_SKIP = "skip"
MODE_FUSE = "fuse"

# Sequence position assigned to a fused token (never a real patch position).
FUSED_POSITION = -1


@dataclass(frozen=True)
class DropSchedule:
    """Where, how many, and in which mode tokens are dropped and returned.

    ``stages`` pairs drop layers with drop ratios; a ratio applies to the
    patch tokens that are live when its layer runs, so two stages compound.
    Layer indices are 0-based.
    """
    stages: tuple = ()
    skip_target: Optional[int] = None
    mode: str = MODE_NONE
    warmup_epochs: int = 0
    drop_after_ffn: bool = False

    @classmethod
    def none(cls) -> "DropSchedule":
        return cls()

    @classmethod
    def single(cls, drop_layer: int, ratio: float, skip_target: int,
               warmup_epochs: int = 0) -> "DropSchedule":
        return cls(stages=((drop_layer, ratio),), skip_target=skip_target,
                   mode=MODE_SKIP, warmup_epochs=warmup_epochs)

    @classmethod
    def fused(cls, drop_layer: int, ratio: float,
              warmup_epochs: int = 0) -> "DropSchedule":
        return cls(stages=((drop_layer, ratio),), skip_target=None,
                   mode=MODE_FUSE, warmup_epochs=warmup_epochs)


@dataclass(frozen=True)
class LayerPlan:
    """Token topology of one layer, as ``plan`` derives it from a schedule."""
    attn_tokens: int                # tokens entering the attention sublayer
    ffn_tokens: int                 # tokens entering the FFN sublayer
    ratio: Optional[float] = None   # drop ratio of this layer's stage, if any
    fused: int = 0                  # dropped tokens fused into one token here
    reinsert: bool = False          # merge the stash back before attention


@dataclass
class ImportanceVector:
    """Per-patch importance scores aligned with the current patch tokens."""
    scores: Tensor           # [batch, patches], CLS column already removed
    source_layer: int


@dataclass
class StashEntry:
    drop_layer: int
    embeddings: Tensor       # [batch, k, embed_dim]
    positions: np.ndarray    # [batch, k] original positions


@dataclass
class TokenStash:
    """Dropped tokens awaiting reinsertion, keyed by their drop layer."""
    entries: list = field(default_factory=list)

    def total_positions(self) -> Optional[np.ndarray]:
        """All stashed positions as one [batch, k_total] array (None if empty)."""
        if not self.entries:
            return None
        return np.concatenate([e.positions for e in self.entries], axis=1)


def validate(schedule: DropSchedule, config: ModelConfig) -> None:
    """Reject schedules whose layers, ratios or mode don't fit the model."""
    if schedule.mode not in (MODE_NONE, MODE_SKIP, MODE_FUSE):
        raise ValueError(f"mode must be none/skip/fuse, got {schedule.mode!r}")
    if schedule.warmup_epochs < 0:
        raise ValueError(f"warmup_epochs must be >= 0, got {schedule.warmup_epochs}")
    if schedule.mode == MODE_NONE:
        return
    layers = [layer for layer, _ in schedule.stages]
    for layer, ratio in schedule.stages:
        if not 0 <= ratio < 1:
            raise ValueError(f"drop ratio must be in [0, 1), got {ratio}")
        if layer == 0:
            raise ValueError("drop_layers: dropping at layer 0 is not allowed")
        if layer >= config.depth - 1:
            raise ValueError(
                f"drop_layers: layer {layer} too late for depth {config.depth} "
                "(final layer cannot drop)"
            )
    if any(b <= a for a, b in zip(layers, layers[1:])):
        raise ValueError(f"drop_layers must be strictly increasing, got {layers}")
    if schedule.mode == MODE_SKIP:
        if schedule.skip_target is None:
            raise ValueError("skip_target: required when mode is skip")
        if schedule.skip_target >= config.depth:
            raise ValueError(
                f"skip_target {schedule.skip_target} >= depth {config.depth}"
            )
        if layers and schedule.skip_target <= max(layers):
            raise ValueError(
                f"skip_target {schedule.skip_target} must come after the last "
                f"drop layer {max(layers)}"
            )
    else:  # fuse
        if schedule.skip_target is not None:
            raise ValueError("skip_target: must be none when mode is fuse")
        if len(schedule.stages) > 1:
            raise ValueError("fuse mode supports a single drop stage")


def plan(schedule: DropSchedule, config: ModelConfig,
         epoch: int = 10 ** 9) -> list:
    """One LayerPlan per layer: the token topology of the forward pass.

    Dense before ``warmup_epochs``; the stash is reinserted at the skip target
    only if something was dropped into it. Does not validate, so a schedule
    ``validate`` rejects (a layer-0 drop) can still be executed.
    """
    n = config.num_tokens
    if schedule.mode == MODE_NONE or epoch < schedule.warmup_epochs:
        return [LayerPlan(n, n) for _ in range(config.depth)]
    ratios = dict(reversed(schedule.stages))  # a layer's first stage wins
    stashed = 0
    layers = []
    for layer in range(config.depth):
        reinsert = (schedule.mode == MODE_SKIP and stashed > 0
                    and layer == schedule.skip_target)
        if reinsert:
            n, stashed = n + stashed, 0
        attn_n, fused = n, 0
        ratio = ratios.get(layer)
        if ratio is not None:
            dropped = n - 1 - keep_count_for(n - 1, ratio)
            n -= dropped
            if schedule.mode == MODE_FUSE and dropped:
                fused = dropped
                n += 1
            else:
                stashed += dropped
        ffn_n = attn_n if ratio is None or schedule.drop_after_ffn else n
        layers.append(LayerPlan(attn_n, ffn_n, ratio, fused, reinsert))
    return layers


def cls_importance(record: AttentionRecord) -> ImportanceVector:
    """Head-averaged CLS attention row, with the CLS self-attention removed."""
    b, heads, n, _ = record.scores.shape
    if n < 2:
        raise ValueError("importance needs at least one patch token besides CLS")
    row = T.take(record.scores, np.array([0]), axis=2)      # [B, h, 1, N]
    row = T.reshape(row, (b, heads, n))
    mean = T.scale(T.tensor_sum(row, axis=1), 1.0 / heads)  # [B, N]
    patch = T.take(mean, np.arange(1, n), axis=1)           # [B, N-1]
    return ImportanceVector(scores=patch, source_layer=record.layer_index)


def keep_count_for(patch_count: int, ratio: float) -> int:
    """Patch tokens surviving a drop stage; rounding favors keeping."""
    return math.ceil(patch_count * (1.0 - ratio))


def select_topk(importance: ImportanceVector, ratio: float,
                patch_positions: np.ndarray):
    """Partition patch positions into keep/drop sets by importance.

    Per-sample selection; ties broken toward the lower original position so
    the ordering is total. Both returned arrays are sorted ascending by
    position, shapes [batch, keep] and [batch, drop].
    """
    if not 0 <= ratio < 1:
        raise ValueError(f"drop ratio must be in [0, 1), got {ratio}")
    scores = importance.scores.data
    if scores.shape != patch_positions.shape:
        raise ValueError(
            f"importance shape {scores.shape} does not match patch positions "
            f"{patch_positions.shape}"
        )
    count = patch_positions.shape[1]
    keep = keep_count_for(count, ratio)
    order = np.lexsort((patch_positions, -scores), axis=-1)
    keep_pos = np.take_along_axis(patch_positions, order[:, :keep], axis=1)
    drop_pos = np.take_along_axis(patch_positions, order[:, keep:], axis=1)
    return np.sort(keep_pos, axis=1), np.sort(drop_pos, axis=1)


def _position_lut(positions: np.ndarray) -> np.ndarray:
    """Map original position -> current row index, per sample (-1 = absent)."""
    b, n = positions.shape
    size = int(positions.max()) + 1
    lut = np.full((b, size), -1, dtype=np.int64)
    lut[np.arange(b)[:, None], positions] = np.arange(n)
    return lut


def _gather_partition(tokens: TokenBatch, keep_pos: np.ndarray,
                      drop_pos: np.ndarray):
    """Live (CLS + keep set) rows and positions, dropped rows and row indices."""
    b = tokens.positions.shape[0]
    lut = _position_lut(tokens.positions)
    brange = np.arange(b)[:, None]
    live_pos = np.concatenate([np.zeros((b, 1), dtype=keep_pos.dtype), keep_pos],
                              axis=1)
    drop_idx = lut[brange, drop_pos]
    live = T.gather_rows(tokens.embeddings, lut[brange, live_pos])
    return live, live_pos, T.gather_rows(tokens.embeddings, drop_idx), drop_idx


def _check_partition(positions: np.ndarray, keep_pos: np.ndarray,
                     drop_pos: np.ndarray) -> None:
    b = positions.shape[0]
    claimed = np.concatenate(
        [np.zeros((b, 1), dtype=positions.dtype), keep_pos, drop_pos], axis=1)
    if claimed.shape[1] != positions.shape[1]:
        raise ValueError(
            f"keep/drop cover {claimed.shape[1]} positions, live batch has "
            f"{positions.shape[1]}"
        )
    if not (np.sort(claimed, axis=1) == np.sort(positions, axis=1)).all():
        raise ValueError("keep/drop sets do not partition the live positions")


def split(tokens: TokenBatch, keep_pos: np.ndarray, drop_pos: np.ndarray,
          stash: TokenStash, layer: int) -> TokenBatch:
    """Remove the drop set from the live batch, stashing it for reinsertion.

    Differentiable: gradients flow both into the kept path and, via the stash,
    into the dropped path once it is reinserted.
    """
    _check_partition(tokens.positions, keep_pos, drop_pos)
    if drop_pos.shape[1] == 0:
        return tokens
    live, live_pos, dropped, _ = _gather_partition(tokens, keep_pos, drop_pos)
    stash.entries.append(StashEntry(layer, dropped, drop_pos.copy()))
    return TokenBatch(live, live_pos, layer)


def reinsert(tokens: TokenBatch, stash: TokenStash) -> TokenBatch:
    """Merge every stash entry back at its original positions (then empty it)."""
    if not stash.entries:
        return tokens
    b, live_n, d = tokens.embeddings.shape
    stashed = stash.total_positions()
    total = live_n + stashed.shape[1]
    all_pos = np.concatenate([tokens.positions, stashed], axis=1)
    expected = np.tile(np.arange(total), (b, 1))
    if not (np.sort(all_pos, axis=1) == expected).all():
        raise ValueError("live and stashed positions do not cover 0..n exactly")
    base = Tensor(np.zeros((b, total, d), dtype=tokens.embeddings.dtype))
    out = T.scatter_rows(base, tokens.positions, tokens.embeddings)
    for entry in stash.entries:
        out = T.scatter_rows(out, entry.positions, entry.embeddings)
    stash.entries.clear()
    return TokenBatch(out, expected, tokens.layer_index)


def fuse(dropped_embeddings: Tensor, dropped_importance: Tensor) -> Tensor:
    """Importance-weighted average of the dropped tokens: [batch, 1, embed_dim].

    Weights are the dropped tokens' importance scores normalized over the
    dropped set; an all-zero set falls back to uniform weights.
    """
    b, k, _ = dropped_embeddings.shape
    if k == 0:
        raise ValueError("fuse needs at least one dropped token")
    sums = dropped_importance.data.sum(axis=1)
    if (sums > 0).all():
        total = T.tensor_sum(dropped_importance, axis=1, keepdims=True)
        weights = T.div(dropped_importance, total)
    else:
        log.warning("all-zero importance over dropped set; using uniform fuse weights")
        weights = Tensor(np.full((b, k), 1.0 / k,
                                 dtype=dropped_embeddings.dtype))
    return T.matmul(T.reshape(weights, (b, 1, k)), dropped_embeddings)


def fuse_into(tokens: TokenBatch, importance: ImportanceVector,
              keep_pos: np.ndarray, drop_pos: np.ndarray,
              layer: int) -> TokenBatch:
    """Replace the drop set with a single fused token appended to the live batch."""
    _check_partition(tokens.positions, keep_pos, drop_pos)
    live, live_pos, dropped, drop_idx = _gather_partition(tokens, keep_pos,
                                                          drop_pos)
    # Importance is indexed by patch slot; token row i is patch slot i - 1.
    b, k = drop_pos.shape
    imp3 = T.reshape(importance.scores, importance.scores.shape + (1,))
    dropped_imp = T.reshape(T.gather_rows(imp3, drop_idx - 1), (b, k))
    fused = fuse(dropped, dropped_imp)
    merged = T.concat([live, fused], axis=1)
    positions = np.concatenate(
        [live_pos, np.full((b, 1), FUSED_POSITION, dtype=live_pos.dtype)], axis=1)
    return TokenBatch(merged, positions, layer)
