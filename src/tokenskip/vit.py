"""Small pre-norm Vision Transformer built on the tensor engine.

The backbone exposes per-layer attention score records and the per-layer token
sequences so the token-dropping machinery in ``tokendrop`` can hook in between
the attention and FFN sublayers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass(frozen=True)
class ModelConfig:
    depth: int = 12
    heads: int = 6
    embed_dim: int = 384
    ffn_ratio: int = 4
    patch_size: int = 16
    image_size: int = 224
    num_classes: int = 1000
    channels: int = 3

    def __post_init__(self):
        if self.embed_dim % self.heads != 0:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}"
            )
        if self.image_size % self.patch_size != 0:
            raise ValueError(
                f"image_size {self.image_size} not divisible by patch_size "
                f"{self.patch_size}"
            )

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.heads

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def num_tokens(self) -> int:
        return self.num_patches + 1


MODEL_PRESETS = {
    # ViT-small convention at 224px; width is the community default for that name.
    "paper-vit-small": ModelConfig(depth=12, heads=6, embed_dim=384, patch_size=16,
                                   image_size=224, num_classes=1000),
    "desk": ModelConfig(depth=6, heads=4, embed_dim=128, patch_size=4,
                        image_size=32, num_classes=10),
    "tiny": ModelConfig(depth=2, heads=2, embed_dim=8, patch_size=2,
                        image_size=4, num_classes=3),
}


@dataclass
class TokenBatch:
    """Token embeddings plus each token's original sequence position.

    ``positions`` is an int array of shape [batch, tokens]; position 0 is the
    CLS token and is always present. Rows are kept sorted ascending, except
    that a fused token carries the sentinel position -1 at the end of the row.
    """
    embeddings: Tensor
    positions: np.ndarray
    layer_index: int = 0

    def __post_init__(self):
        b, n, _ = self.embeddings.shape
        if self.positions.shape != (b, n):
            raise ValueError(
                f"positions shape {self.positions.shape} does not match "
                f"{n} tokens in batch of {b}"
            )
        if not (self.positions[:, 0] == 0).all():
            raise ValueError("CLS (position 0) must lead every sequence")

    @property
    def num_tokens(self) -> int:
        return self.embeddings.shape[1]


@dataclass
class AttentionRecord:
    """Post-softmax attention scores of one layer: [batch, heads, tokens, tokens]."""
    scores: Tensor
    layer_index: int


@dataclass
class ForwardDiagnostics:
    attn_tokens: list = field(default_factory=list)   # tokens at each layer's attention
    kept_patches: dict = field(default_factory=dict)  # drop layer -> kept patch count
    records: Optional[list] = None
    final_positions: Optional[np.ndarray] = None


class ViT:
    """ViT backbone with learned patch projection, CLS token and positional embeddings."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        dt = T.default_dtype()
        c = config
        self.params: dict[str, Tensor] = {}

        def normal(name, shape, std=0.02):
            self.params[name] = Tensor(rng.normal(0.0, std, shape).astype(dt),
                                       requires_grad=True)

        def const(name, shape, value):
            self.params[name] = Tensor(np.full(shape, value, dtype=dt),
                                       requires_grad=True)

        patch_in = c.channels * c.patch_size ** 2
        normal("patch.w", (patch_in, c.embed_dim))
        const("patch.b", (c.embed_dim,), 0.0)
        normal("cls", (1, 1, c.embed_dim))
        normal("pos", (1, c.num_tokens, c.embed_dim))
        hidden = c.ffn_ratio * c.embed_dim
        for i in range(c.depth):
            pre = f"blocks.{i}."
            const(pre + "ln1.g", (c.embed_dim,), 1.0)
            const(pre + "ln1.b", (c.embed_dim,), 0.0)
            for proj in ("wq", "wk", "wv", "wo"):
                normal(pre + "attn." + proj, (c.embed_dim, c.embed_dim))
            for bias in ("bq", "bk", "bv", "bo"):
                const(pre + "attn." + bias, (c.embed_dim,), 0.0)
            const(pre + "ln2.g", (c.embed_dim,), 1.0)
            const(pre + "ln2.b", (c.embed_dim,), 0.0)
            normal(pre + "ffn.w1", (c.embed_dim, hidden))
            const(pre + "ffn.b1", (hidden,), 0.0)
            normal(pre + "ffn.w2", (hidden, c.embed_dim))
            const(pre + "ffn.b2", (c.embed_dim,), 0.0)
        const("ln_f.g", (c.embed_dim,), 1.0)
        const("ln_f.b", (c.embed_dim,), 0.0)
        normal("head.w", (c.embed_dim, c.num_classes))
        const("head.b", (c.num_classes,), 0.0)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def patchify(self, images) -> TokenBatch:
        """Split images into patch tokens, project, prepend CLS, add positions."""
        c = self.config
        if not isinstance(images, Tensor):
            images = Tensor(np.ascontiguousarray(images, dtype=T.default_dtype()))
        b, ch, h, w = images.shape
        if ch != c.channels or h != c.image_size or w != c.image_size:
            raise ValueError(
                f"expected images [*, {c.channels}, {c.image_size}, "
                f"{c.image_size}], got {list(images.shape)}"
            )
        p = c.patch_size
        g = c.image_size // p
        x = T.reshape(images, (b, ch, g, p, g, p))
        x = T.permute(x, (0, 2, 4, 1, 3, 5))
        x = T.reshape(x, (b, g * g, ch * p * p))
        tok = T.matmul(x, self.params["patch.w"], self.params["patch.b"])
        cls = T.repeat_batch(self.params["cls"], b)
        tokens = T.concat([cls, tok], axis=1)
        tokens = T.add(tokens, self.params["pos"])
        positions = np.tile(np.arange(c.num_tokens), (b, 1))
        return TokenBatch(tokens, positions, layer_index=0)

    def attention_block(self, tokens: TokenBatch, layer: int):
        """Pre-norm MHSA sublayer; returns the residual sum and the score record."""
        c = self.config
        pre = f"blocks.{layer}."
        x = tokens.embeddings
        b, n, d = x.shape
        h = T.layernorm(x, self.params[pre + "ln1.g"], self.params[pre + "ln1.b"])

        def proj(name, bias):
            out = T.matmul(h, self.params[pre + "attn." + name],
                           self.params[pre + "attn." + bias])
            out = T.reshape(out, (b, n, c.heads, c.head_dim))
            return T.permute(out, (0, 2, 1, 3))

        q = proj("wq", "bq")
        k = proj("wk", "bk")
        v = proj("wv", "bv")
        q = T.scale(q, 1.0 / np.sqrt(c.head_dim))
        logits = T.matmul(q, T.transpose(k, -1, -2))
        scores = T.softmax(logits, axis=-1)
        ctx = T.matmul(scores, v)
        ctx = T.reshape(T.permute(ctx, (0, 2, 1, 3)), (b, n, d))
        out = T.matmul(ctx, self.params[pre + "attn.wo"],
                       self.params[pre + "attn.bo"])
        res = T.add(x, out)
        return (TokenBatch(res, tokens.positions, layer),
                AttentionRecord(scores, layer))

    def ffn_block(self, tokens: TokenBatch, layer: int) -> TokenBatch:
        pre = f"blocks.{layer}."
        x = tokens.embeddings
        h = T.layernorm(x, self.params[pre + "ln2.g"], self.params[pre + "ln2.b"])
        h = T.matmul(h, self.params[pre + "ffn.w1"], self.params[pre + "ffn.b1"])
        h = T.gelu(h)
        h = T.matmul(h, self.params[pre + "ffn.w2"], self.params[pre + "ffn.b2"])
        return TokenBatch(T.add(x, h), tokens.positions, layer)

    def classify(self, tokens: TokenBatch) -> Tensor:
        """Final layernorm on the CLS embedding, then the linear head."""
        if not (tokens.positions[:, 0] == 0).all():
            raise ValueError("CLS token missing at classification time")
        b = tokens.embeddings.shape[0]
        d = self.config.embed_dim
        cls = T.gather_rows(tokens.embeddings, np.zeros((b, 1), dtype=np.int64))
        cls = T.reshape(cls, (b, d))
        h = T.layernorm(cls, self.params["ln_f.g"], self.params["ln_f.b"])
        return T.matmul(h, self.params["head.w"], self.params["head.b"])

    def forward(self, images, schedule=None, epoch: int = 0,
                collect_records: bool = False):
        """Full forward pass executing the schedule's per-layer token plan."""
        from . import tokendrop

        if schedule is None:
            schedule = tokendrop.DropSchedule.none()
        stash = tokendrop.TokenStash()
        diag = ForwardDiagnostics(records=[] if collect_records else None)

        tokens = self.patchify(images)
        for layer, step in enumerate(tokendrop.plan(schedule, self.config,
                                                    epoch)):
            if step.reinsert:
                tokens = tokendrop.reinsert(tokens, stash)
            diag.attn_tokens.append(tokens.num_tokens)
            tokens, record = self.attention_block(tokens, layer)
            if collect_records:
                diag.records.append(record)
            if step.ratio is not None and not schedule.drop_after_ffn:
                tokens = self._apply_drop(tokens, record, step, stash, layer,
                                          diag)
            tokens = self.ffn_block(tokens, layer)
            if step.ratio is not None and schedule.drop_after_ffn:
                tokens = self._apply_drop(tokens, record, step, stash, layer,
                                          diag)
        diag.final_positions = tokens.positions
        logits = self.classify(tokens)
        return logits, diag

    def _apply_drop(self, tokens, record, step, stash, layer, diag):
        from . import tokendrop

        importance = tokendrop.cls_importance(record)
        keep_pos, drop_pos = tokendrop.select_topk(importance, step.ratio,
                                                   tokens.positions[:, 1:])
        diag.kept_patches[layer] = keep_pos.shape[1]
        if drop_pos.shape[1] == 0:
            return tokens
        if step.fused:
            return tokendrop.fuse_into(tokens, importance, keep_pos, drop_pos,
                                       layer)
        return tokendrop.split(tokens, keep_pos, drop_pos, stash, layer)
