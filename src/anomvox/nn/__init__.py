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
from .network import Composite, Sequential

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
    "MaxPool2D",
    "NonFiniteGradientError",
    "ReLU",
    "Sequential",
    "Sigmoid",
    "Upsample2D",
    "adam_step",
    "grad_check",
    "load_checkpoint",
    "save_checkpoint",
]
