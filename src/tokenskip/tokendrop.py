"""Attention-guided token dropping with skip-connection reinsertion.

The drop path ranks patch tokens by the head-averaged CLS attention row,
removes the lowest-ranked fraction between a layer's attention and FFN
sublayers (so the FFN of that layer already runs on fewer tokens), and
reinserts the removed embeddings unchanged in front of a later layer. A
token's only address is its row: ranking, splits and fusion name tokens by
their row in the live batch, and live rows keep the ascending order of the
batch they were cut from, so CLS stays row 0. The split checks once that
the keep and drop rows partition the patch rows; the stash keeps each
stage's cut-from batch and the rows it kept, and reinsertion scatters each
live batch back into its cut-from batch, last stage first. A fused-token
mode replaces the dropped set with a single importance-weighted average
instead (no reinsertion), for baseline comparison. ``TokenBatch`` holds
the tokens.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import tensor as T
from .tensor import Tensor

if TYPE_CHECKING:
    from .vit import ModelConfig

log = logging.getLogger(__name__)

MODE_NONE = "none"
MODE_SKIP = "skip"
MODE_FUSE = "fuse"

# An epoch past any warm-up: the schedule runs in full.
PAST_WARMUP = 10 ** 9


@dataclass
class TokenBatch:
    """Token embeddings [batch, tokens, dim]; row 0 is the CLS token.

    Rows keep the ascending order of the patchified sequence, except that a
    fused token is the last row. So ranking patch rows with ties toward the
    lower row breaks ties toward the earlier patch; the fused token is never
    ranked, as fuse mode has a single drop stage.
    """
    embeddings: Tensor

    @property
    def num_tokens(self) -> int:
        return self.embeddings.shape[1]


@dataclass(frozen=True)
class DropSchedule:
    """Where, how many, and in which mode tokens are dropped and returned.

    ``stages`` pairs drop layers with drop ratios; a ratio applies to the
    patch tokens that are live when its layer runs, so two stages compound.
    Layer indices are 0-based. ``DropSchedule()`` (mode none) is the dense
    schedule; it has no stages and no skip target.
    """
    stages: tuple = ()
    skip_target: Optional[int] = None
    mode: str = MODE_NONE
    warmup_epochs: int = 0


@dataclass(frozen=True)
class LayerPlan:
    """Token topology of one layer, as ``plan`` derives it from a schedule."""
    attn_tokens: int                # tokens entering the attention sublayer
    ffn_tokens: int                 # tokens entering the FFN, after any drop
    ratio: Optional[float] = None   # drop ratio of this layer's stage, if any
    fused: int = 0                  # dropped tokens fused into one token here
    reinsert: bool = False          # merge the stash back before attention


def validate(schedule: DropSchedule, config: ModelConfig) -> None:
    """Reject schedules whose layers, ratios or mode don't fit the model."""
    if schedule.mode not in (MODE_NONE, MODE_SKIP, MODE_FUSE):
        raise ValueError(f"mode must be none/skip/fuse, got {schedule.mode!r}")
    if schedule.warmup_epochs < 0:
        raise ValueError(f"warmup_epochs must be >= 0, got {schedule.warmup_epochs}")
    if schedule.mode != MODE_SKIP and schedule.skip_target is not None:
        raise ValueError(f"skip_target: mode {schedule.mode} takes no skip target")
    if schedule.mode == MODE_NONE:
        if schedule.stages:
            raise ValueError("drop_layers: mode none takes no drop stage")
        return
    if not schedule.stages:
        raise ValueError(f"drop_layers: mode {schedule.mode} needs a drop stage")
    layers = [layer for layer, _ in schedule.stages]
    for layer, ratio in schedule.stages:
        if not 0 <= ratio < 1:
            raise ValueError(f"drop ratio must be in [0, 1), got {ratio}")
        if layer < 1:
            raise ValueError(
                f"drop_layers: cannot drop at layer {layer}; drops start after "
                "layer 0")
        if layer >= config.depth - 1:
            raise ValueError(
                f"drop_layers: layer {layer} too late for depth {config.depth} "
                "(final layer cannot drop)"
            )
    if any(b <= a for a, b in zip(layers, layers[1:])):
        raise ValueError(f"drop_layers must be strictly increasing, got {layers}")
    if schedule.mode == MODE_FUSE and len(schedule.stages) > 1:
        raise ValueError("fuse mode supports a single drop stage")
    if schedule.mode == MODE_SKIP:
        if schedule.skip_target is None:
            raise ValueError("skip_target: required when mode is skip")
        if schedule.skip_target >= config.depth:
            raise ValueError(
                f"skip_target {schedule.skip_target} >= depth {config.depth}"
            )
        if schedule.skip_target <= max(layers):
            raise ValueError(
                f"skip_target {schedule.skip_target} must come after the last "
                f"drop layer {max(layers)}"
            )


def plan(schedule: DropSchedule, config: ModelConfig,
         epoch: int = PAST_WARMUP) -> list:
    """One LayerPlan per layer: the token topology of the forward pass.

    Dense before ``warmup_epochs``; the stash is reinserted at the skip target
    only if something was dropped into it. Validates first, warm-up included:
    a schedule ``validate`` rejects cannot be planned, so it cannot be run.
    """
    validate(schedule, config)
    ratios = {} if epoch < schedule.warmup_epochs else dict(schedule.stages)
    n, stashed, layers = config.num_tokens, 0, []
    for layer in range(config.depth):
        reinsert = stashed > 0 and layer == schedule.skip_target
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
        layers.append(LayerPlan(attn_n, n, ratio, fused, reinsert))
    return layers


def cls_importance(scores: Tensor) -> Tensor:
    """Head-averaged CLS attention row, with the CLS self-attention removed.

    ``scores`` are post-softmax attention weights [batch, heads, N, N]; the
    result is one importance per patch token, [batch, N-1].
    """
    b, heads, n, _ = scores.shape
    if n < 2:
        raise ValueError("importance needs at least one patch token besides CLS")
    row = T.take(scores, np.array([0]), axis=2)             # [B, h, 1, N]
    row = T.reshape(row, (b, heads, n))
    mean = T.scale(T.tensor_sum(row, axis=1), 1.0 / heads)  # [B, N]
    return T.take(mean, np.arange(1, n), axis=1)            # [B, N-1]


def keep_count_for(patch_count: int, ratio: float) -> int:
    """Patch tokens surviving a drop stage; rounding favors keeping."""
    return math.ceil(patch_count * (1.0 - ratio))


def select_topk(scores: np.ndarray, ratio: float):
    """Partition the live patch rows into keep/drop sets by importance.

    ``scores`` [batch, patches] rank the live patch rows 1..patches in order.
    Per-sample selection; a stable sort breaks ties toward the lower row,
    which is the earlier patch because live rows keep their sequence order
    (see ``TokenBatch``). Returns 1-based rows of the live batch,
    each set sorted ascending, shapes [batch, keep] and [batch, drop].
    """
    if not 0 <= ratio < 1:
        raise ValueError(f"drop ratio must be in [0, 1), got {ratio}")
    keep = keep_count_for(scores.shape[1], ratio)
    order = np.argsort(-scores, axis=1, kind="stable") + 1
    return np.sort(order[:, :keep], axis=1), np.sort(order[:, keep:], axis=1)


def _live_rows(tokens: TokenBatch, keep: np.ndarray,
               drop: np.ndarray) -> np.ndarray:
    """CLS row 0 and the keep rows, once keep and drop partition rows 1..n-1."""
    b, n, _ = tokens.embeddings.shape
    claimed = np.sort(np.concatenate([keep, drop], axis=1), axis=1)
    if claimed.shape != (b, n - 1) or (claimed != np.arange(1, n)).any():
        raise ValueError(
            f"keep/drop rows do not partition the live patch rows 1..{n - 1}")
    return np.concatenate([np.zeros((b, 1), dtype=keep.dtype), keep], axis=1)


def split(tokens: TokenBatch, keep: np.ndarray, drop: np.ndarray,
          stash: list) -> TokenBatch:
    """Remove the drop rows from the live batch, stashing them for reinsertion.

    ``stash`` is a list of (embeddings [batch, n, d], live rows [batch, k])
    pairs: the batch a stage cut from and the rows it kept, whose other rows
    are the dropped ones. Differentiable: gradients flow both into the kept
    path and, via the stash, into the dropped rows once they are reinserted.
    """
    live_rows = _live_rows(tokens, keep, drop)
    if drop.shape[1] == 0:
        return tokens
    stash.append((tokens.embeddings, live_rows))
    return TokenBatch(T.gather_rows(tokens.embeddings, live_rows))


def reinsert(tokens: TokenBatch, stash: list) -> TokenBatch:
    """Scatter the live batch back into each stashed batch, last stage first
    (then clear the stash).

    ``scatter_rows`` checks that the live rows fit their cut-from batch: in
    range, distinct, and one per live row.
    """
    if not stash:
        return tokens
    x = tokens.embeddings
    for base, rows in reversed(stash):
        x = T.scatter_rows(base, rows, x)
    stash.clear()
    return TokenBatch(x)


def fuse(dropped_embeddings: Tensor, dropped_importance: Tensor) -> Tensor:
    """Importance-weighted average of the dropped tokens: [batch, 1, embed_dim].

    Weights are the dropped tokens' importance scores normalized over each
    sample's dropped set. A sample whose set sums to zero gets uniform
    weights instead (and passes no gradient to its scores); the fallback of
    one sample leaves every other sample's fused token as it would be alone.
    """
    b, k, _ = dropped_embeddings.shape
    if k == 0:
        raise ValueError("fuse needs at least one dropped token")
    positive = dropped_importance.data.sum(axis=1, keepdims=True) > 0
    if not positive.all():
        log.warning("all-zero importance over a sample's dropped set; using "
                    "uniform fuse weights for that sample")
    # Masked to zero, a fallback sample's scores get total 1 and weights
    # 0 + 1/k; the others' weights keep their bits (x * 1 + 0).
    dtype = dropped_importance.dtype
    masked = T.mul(dropped_importance, Tensor(positive.astype(dtype)))
    total = T.add(T.tensor_sum(masked, axis=1, keepdims=True),
                  Tensor((~positive).astype(dtype)))
    weights = T.add(T.div(masked, total),
                    Tensor(np.where(positive, 0.0, 1.0 / k).astype(dtype)))
    return T.matmul(T.reshape(weights, (b, 1, k)), dropped_embeddings)


def fuse_into(tokens: TokenBatch, importance: Tensor, keep: np.ndarray,
              drop: np.ndarray) -> TokenBatch:
    """Replace the drop rows with a single fused token appended to the live batch."""
    live_rows = _live_rows(tokens, keep, drop)
    live = T.gather_rows(tokens.embeddings, live_rows)
    dropped = T.gather_rows(tokens.embeddings, drop)
    # Importance is indexed by patch slot; token row i is patch slot i - 1.
    b, k = drop.shape
    imp3 = T.reshape(importance, importance.shape + (1,))
    dropped_imp = T.reshape(T.gather_rows(imp3, drop - 1), (b, k))
    fused = fuse(dropped, dropped_imp)
    return TokenBatch(T.concat([live, fused], axis=1))
