"""Small pre-norm Vision Transformer built on the tensor engine.

``param_table`` declares every parameter; ``ViT`` draws its parameters from
it, and ``ViT.from_arrays`` (used by ``checkpoint.load``) draws nothing.

The forward pass runs a ``tokendrop.DropSchedule`` (dense by default) on the
``tokendrop.TokenBatch`` of each image batch. The attention sublayer returns
its post-softmax scores beside the token batch, and a drop layer drops
between its attention and FFN sublayers, so the dropped tokens skip the FFN.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor as T, tokendrop
from .data import CHANNELS
from .tensor import Tensor
from .tokendrop import PAST_WARMUP, DropSchedule, TokenBatch

FFN_RATIO = 4  # FFN hidden width per embedding width, as in ViT-small


@dataclass(frozen=True)
class ModelConfig:
    depth: int
    heads: int
    embed_dim: int
    patch_size: int
    image_size: int
    num_classes: int

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1, got {getattr(self, f.name)}")
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
class ForwardDiagnostics:
    attn_tokens: list = field(default_factory=list)   # tokens at each layer's attention
    kept_patches: dict = field(default_factory=dict)  # drop layer -> kept patch count


def param_table(config: ModelConfig) -> dict:
    """Name -> (shape, fill) of every ViT parameter, in ``ViT.params`` order.

    A fill of None is a normal draw with mean 0 and std 0.02, made in table
    order; a number is a constant. SkipViT adds no parameters, so this is a model's table.
    """
    c = config
    d, hidden = c.embed_dim, FFN_RATIO * c.embed_dim
    block = {"ln1.g": ((d,), 1.0), "ln1.b": ((d,), 0.0),
             **{"attn." + w: ((d, d), None) for w in ("wq", "wk", "wv", "wo")},
             **{"attn." + b: ((d,), 0.0) for b in ("bq", "bk", "bv", "bo")},
             "ln2.g": ((d,), 1.0), "ln2.b": ((d,), 0.0),
             "ffn.w1": ((d, hidden), None), "ffn.b1": ((hidden,), 0.0),
             "ffn.w2": ((hidden, d), None), "ffn.b2": ((d,), 0.0)}
    return {"patch.w": ((CHANNELS * c.patch_size ** 2, d), None), "patch.b": ((d,), 0.0),
            "cls": ((1, 1, d), None), "pos": ((1, c.num_tokens, d), None),
            **{f"blocks.{i}.{name}": entry
               for i in range(c.depth) for name, entry in block.items()},
            "ln_f.g": ((d,), 1.0), "ln_f.b": ((d,), 0.0),
            "head.w": ((d, c.num_classes), None), "head.b": ((c.num_classes,), 0.0)}


def cls_embeddings(tokens: TokenBatch) -> Tensor:
    """The CLS token's embeddings [batch, dim]."""
    b, _, d = tokens.embeddings.shape
    cls = T.gather_rows(tokens.embeddings, np.zeros((b, 1), dtype=np.int64))
    return T.reshape(cls, (b, d))


class ViT:
    """ViT backbone with learned patch projection, CLS token and positional embeddings."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.config = config
        self.params: dict[str, Tensor] = {
            name: Tensor(rng.normal(0.0, 0.02, shape).astype(np.float32)
                         if fill is None else np.full(shape, fill, np.float32),
                         requires_grad=True)
            for name, (shape, fill) in param_table(config).items()}

    @classmethod
    def from_arrays(cls, config: ModelConfig, arrays: dict) -> ViT:
        """The model holding ``arrays``, one per ``param_table`` name; draws nothing."""
        model = cls.__new__(cls)
        model.config = config
        model.params = {name: Tensor(arrays[name], requires_grad=True)
                        for name in param_table(config)}
        return model

    def patchify(self, images) -> TokenBatch:
        """Cast images to the parameters' dtype, split them into patch
        tokens, project, prepend CLS, add positions."""
        c = self.config
        images = Tensor(np.ascontiguousarray(images, self.params["patch.w"].dtype))
        b, ch, h, w = images.shape
        if ch != CHANNELS or h != c.image_size or w != c.image_size:
            raise ValueError(
                f"expected images [*, {CHANNELS}, {c.image_size}, "
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
        return TokenBatch(T.add(tokens, self.params["pos"]))

    def attention_block(self, tokens: TokenBatch, layer: int):
        """Pre-norm MHSA sublayer; returns the residual sum and the scores.

        The scores are the post-softmax attention weights,
        [batch, heads, tokens, tokens].
        """
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
        return TokenBatch(res), scores

    def ffn_block(self, tokens: TokenBatch, layer: int) -> TokenBatch:
        pre = f"blocks.{layer}."
        x = tokens.embeddings
        h = T.layernorm(x, self.params[pre + "ln2.g"], self.params[pre + "ln2.b"])
        h = T.matmul(h, self.params[pre + "ffn.w1"], self.params[pre + "ffn.b1"])
        h = T.gelu(h)
        h = T.matmul(h, self.params[pre + "ffn.w2"], self.params[pre + "ffn.b2"])
        return TokenBatch(T.add(x, h))

    def classify(self, tokens: TokenBatch) -> Tensor:
        """Final layernorm on the CLS embedding, then the linear head."""
        return self.head(cls_embeddings(tokens))

    def head(self, cls: Tensor) -> Tensor:
        """``classify`` of the CLS embeddings [batch, dim] themselves."""
        h = T.layernorm(cls, self.params["ln_f.g"], self.params["ln_f.b"])
        return T.matmul(h, self.params["head.w"], self.params["head.b"])

    def encode(self, images, schedule=DropSchedule(), epoch: int = PAST_WARMUP):
        """The blocks of the forward pass, executing ``tokendrop.plan``;
        returns the last block's tokens and the diagnostics. A schedule that
        ``validate`` rejects cannot run; dense before warm-up (by default
        past)."""
        steps = tokendrop.plan(schedule, self.config, epoch)
        stash = []  # (cut-from embeddings, live rows) awaiting reinsertion
        diag = ForwardDiagnostics()

        tokens = self.patchify(images)
        for layer, step in enumerate(steps):
            if step.reinsert:
                tokens = tokendrop.reinsert(tokens, stash)
            diag.attn_tokens.append(tokens.num_tokens)
            tokens, scores = self.attention_block(tokens, layer)
            if step.ratio is not None:
                importance = tokendrop.cls_importance(scores)
                keep, drop = tokendrop.select_topk(importance.data, step.ratio)
                diag.kept_patches[layer] = keep.shape[1]
                if step.fused:
                    tokens = tokendrop.fuse_into(tokens, importance, keep, drop)
                else:
                    tokens = tokendrop.split(tokens, keep, drop, stash)
            tokens = self.ffn_block(tokens, layer)
        return tokens, diag

    def forward(self, images, schedule=DropSchedule(), epoch: int = PAST_WARMUP):
        """Full forward pass: ``encode``, then ``classify``; returns the
        logits and the diagnostics."""
        tokens, diag = self.encode(images, schedule, epoch)
        return self.classify(tokens), diag
