"""Desk-scale ViT training laboratory with attention-guided token skipping."""

from .tensor import Tensor
from .tokendrop import DropSchedule
from .vit import MODEL_PRESETS, ModelConfig, TokenBatch, ViT

__all__ = [
    "Tensor",
    "DropSchedule",
    "ModelConfig",
    "MODEL_PRESETS",
    "TokenBatch",
    "ViT",
]
