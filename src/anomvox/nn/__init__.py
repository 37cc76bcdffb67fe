"""Minimal reproducible neural-network kernel (numpy, CPU, float32/float64)."""

from .adam import AdamState, NonFiniteGradientError, adam_step
from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .gradcheck import GradCheckReport, grad_check
from .layers import (
    BatchNorm2D,
    Conv2D,
    ConvTranspose2D,
    Layer,
    LayerError,
    MaxPool2D,
    ReLU,
    Sigmoid,
    Upsample2D,
)
from .network import Composite, LayerSpec, Sequential, ShapeError, chain_shapes, out_shape, resolve_padding

__all__ = [
    "AdamState",
    "BatchNorm2D",
    "Checkpoint",
    "CheckpointError",
    "Composite",
    "Conv2D",
    "ConvTranspose2D",
    "GradCheckReport",
    "Layer",
    "LayerError",
    "LayerSpec",
    "MaxPool2D",
    "NonFiniteGradientError",
    "ReLU",
    "Sequential",
    "ShapeError",
    "Sigmoid",
    "Upsample2D",
    "adam_step",
    "chain_shapes",
    "grad_check",
    "load_checkpoint",
    "out_shape",
    "resolve_padding",
    "save_checkpoint",
]
