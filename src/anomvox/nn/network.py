"""Layer specifications, output-shape algebra, and the sequential container.

A network is declared as a list of LayerSpec values.  out_shape() checks and
propagates (channels, height, width) through a spec, so architectures can be
shape-verified before any parameter is allocated, and decoder output paddings
can be solved against recorded encoder sizes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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

KINDS = ("conv", "conv_transpose", "maxpool", "upsample", "batchnorm", "relu", "sigmoid")


class ShapeError(LayerError):
    """A spec produces a non-positive or inconsistent output shape."""


@dataclass(frozen=True)
class LayerSpec:
    """Declarative layer description; geometry fields are ignored by kinds
    that do not use them."""

    kind: str
    in_channels: int | None = None
    out_channels: int | None = None
    kernel: tuple[int, int] | None = None
    stride: tuple[int, int] = (1, 1)
    padding: str | tuple[int, int] = "valid"
    output_padding: tuple[int, int] = (0, 0)
    factor: int = 2
    init: str = "he"  # "he" for ReLU-followed layers, "glorot" for the sigmoid output
    bias: bool = True  # False when batch normalization follows (bias is redundant there)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ShapeError(f"unknown layer kind {self.kind!r}")
        if self.kind in ("conv", "conv_transpose"):
            if self.kernel is None or self.in_channels is None or self.out_channels is None:
                raise ShapeError(f"{self.kind} spec needs kernel and channel counts")
            if min(self.kernel) < 1 or min(self.stride) < 1:
                raise ShapeError("kernel and stride must be >= 1")
        if self.kind in ("maxpool", "upsample") and self.factor < 1:
            raise ShapeError("pool/upsample factor must be >= 1")


def resolve_padding(padding: str | tuple[int, int], kernel: tuple[int, int]) -> tuple[int, int]:
    """Named paddings to explicit (ph, pw): valid=0, same=(k-1)/2, full=k-1."""
    if isinstance(padding, str):
        if padding == "valid":
            return (0, 0)
        if padding == "same":
            if any(k % 2 == 0 for k in kernel):
                raise ShapeError(f"'same' padding needs odd kernels, got {kernel}")
            return ((kernel[0] - 1) // 2, (kernel[1] - 1) // 2)
        if padding == "full":
            return (kernel[0] - 1, kernel[1] - 1)
        raise ShapeError(f"unknown padding {padding!r}")
    ph, pw = padding
    if ph < 0 or pw < 0:
        raise ShapeError(f"padding must be >= 0, got {padding}")
    return (int(ph), int(pw))


def out_shape(spec: LayerSpec, in_shape: tuple[int, int, int]) -> tuple[int, int, int]:
    """Propagate (C, H, W) through one layer spec, validating positivity."""
    c, h, w = in_shape
    if spec.kind == "conv":
        if c != spec.in_channels:
            raise ShapeError(f"conv expects {spec.in_channels} input channels, got {c}")
        kh, kw = spec.kernel
        sh, sw = spec.stride
        ph, pw = resolve_padding(spec.padding, spec.kernel)
        oh = (h + 2 * ph - kh) // sh + 1
        ow = (w + 2 * pw - kw) // sw + 1
        if h + 2 * ph < kh or w + 2 * pw < kw or oh < 1 or ow < 1:
            raise ShapeError(f"conv {spec.kernel}/{spec.stride} collapses {h}x{w} to {oh}x{ow}")
        return (spec.out_channels, oh, ow)
    if spec.kind == "conv_transpose":
        if c != spec.in_channels:
            raise ShapeError(
                f"transposed conv expects {spec.in_channels} input channels, got {c}"
            )
        kh, kw = spec.kernel
        sh, sw = spec.stride
        ph, pw = resolve_padding(spec.padding, spec.kernel)
        oph, opw = spec.output_padding
        if oph >= sh or opw >= sw:
            raise ShapeError(f"output_padding {spec.output_padding} must be < stride {spec.stride}")
        oh = (h - 1) * sh - 2 * ph + kh + oph
        ow = (w - 1) * sw - 2 * pw + kw + opw
        if oh < 1 or ow < 1:
            raise ShapeError(f"transposed conv collapses {h}x{w} to {oh}x{ow}")
        return (spec.out_channels, oh, ow)
    if spec.kind == "maxpool":
        oh, ow = h // spec.factor, w // spec.factor
        if oh < 1 or ow < 1:
            raise ShapeError(f"maxpool factor {spec.factor} exceeds {h}x{w}")
        return (c, oh, ow)
    if spec.kind == "upsample":
        return (c, h * spec.factor, w * spec.factor)
    if spec.kind == "batchnorm":
        if spec.in_channels is not None and spec.in_channels != c:
            raise ShapeError(f"batchnorm expects {spec.in_channels} channels, got {c}")
        return in_shape
    return in_shape  # relu / sigmoid


def chain_shapes(
    specs: Iterable[LayerSpec], in_shape: tuple[int, int, int]
) -> list[tuple[int, int, int]]:
    """Shapes after each layer, starting from in_shape (exclusive)."""
    shapes = []
    cur = in_shape
    for spec in specs:
        cur = out_shape(spec, cur)
        shapes.append(cur)
    return shapes


def window_input(spec: LayerSpec, window):
    """The input range [lo, hi) per axis that the output window ((r0, r1),
    (c0, c1)) of one layer reads, before clipping to the input's extent."""
    if spec.kind == "conv" and spec.stride == (1, 1):
        pad = resolve_padding(spec.padding, spec.kernel)
        return tuple((a - p, b - p + k - 1) for (a, b), p, k in zip(window, pad, spec.kernel))
    if spec.kind == "upsample":
        return tuple((a // spec.factor, -(-b // spec.factor)) for a, b in window)
    if spec.kind in ("relu", "sigmoid", "batchnorm"):
        return window
    raise ShapeError(f"no window rule for a {spec.kind} layer with stride {spec.stride}")


def _he_normal(rng: np.random.Generator, shape, fan_in: int, dtype):
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape).astype(dtype)


def _glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def build_layer(spec: LayerSpec, rng: np.random.Generator, dtype=np.float32) -> Layer:
    """Instantiate one layer, drawing its initial parameters from rng."""
    if spec.kind in ("conv", "conv_transpose"):
        pad = resolve_padding(spec.padding, spec.kernel)
        args = (spec.in_channels, spec.out_channels, spec.kernel, spec.stride, pad)
        if spec.kind == "conv":
            layer = Conv2D(*args, spec.bias, dtype)
        else:
            layer = ConvTranspose2D(*args, spec.output_padding, spec.bias, dtype)
        fan_in = spec.in_channels * spec.kernel[0] * spec.kernel[1]
        fan_out = spec.out_channels * spec.kernel[0] * spec.kernel[1]
        if spec.init == "glorot":
            layer.W = _glorot_uniform(rng, layer.W.shape, fan_in, fan_out, dtype)
        else:
            layer.W = _he_normal(rng, layer.W.shape, fan_in, dtype)
        return layer
    if spec.kind == "maxpool":
        return MaxPool2D(spec.factor)
    if spec.kind == "upsample":
        return Upsample2D(spec.factor)
    if spec.kind == "batchnorm":
        if spec.in_channels is None:
            raise ShapeError("batchnorm spec needs in_channels")
        return BatchNorm2D(spec.in_channels, dtype=dtype)
    if spec.kind == "relu":
        return ReLU()
    return Sigmoid()


class Composite:
    """The array protocol of an object made of parts, each a Layer or another
    Composite, listed by _parts() as (key prefix, part) pairs: its params,
    grads and state are its parts' arrays under their prefixes, in part order,
    and set_params/set_state hand each part the values under its prefix."""

    def _named(self, method: str) -> dict[str, np.ndarray]:
        named = ((prefix, getattr(part, method)()) for prefix, part in self._parts())
        return {prefix + k: v for prefix, arrays in named for k, v in arrays.items()}

    def params(self) -> dict[str, np.ndarray]:
        return self._named("params")

    def grads(self) -> dict[str, np.ndarray]:
        return self._named("grads")

    def state(self) -> dict[str, np.ndarray]:
        return self._named("state")

    def set_params(self, values: dict[str, np.ndarray]) -> None:
        self._load("set_params", values)

    def set_state(self, values: dict[str, np.ndarray]) -> None:
        self._load("set_state", values)

    def _load(self, method: str, values: dict[str, np.ndarray]) -> None:
        for prefix, part in self._parts():
            own = {k[len(prefix) :]: v for k, v in values.items() if k.startswith(prefix)}
            getattr(part, method)(own)


class Sequential(Composite):
    """Ordered layer stack with flattened parameter/gradient dictionaries.

    Parameter names are "L{i}.{kind}.{param}" so checkpoints and optimizer
    state stay stable across rebuilds.
    """

    def __init__(self, specs: Sequence[LayerSpec], rng: np.random.Generator, dtype=np.float32):
        self.specs = tuple(specs)
        self.dtype = dtype
        self.layers: list[Layer] = [build_layer(s, rng, dtype) for s in self.specs]

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train)
        return x

    def forward_window(self, x: np.ndarray, rows, cols) -> np.ndarray:
        """forward(x, False)[:, :, r0:r1, c0:c1] for rows (r0, r1) and cols
        (c0, c1), computing only what reaches that window: each conv runs
        unpadded on its input window (window_input), zero-filled past that
        layer's border.  Inference only."""
        shapes = [x.shape[1:], *chain_shapes(self.specs, x.shape[1:])]
        if not all(0 <= a < b <= n for (a, b), n in zip((rows, cols), shapes[-1][1:])):
            raise ShapeError(f"window {rows} x {cols} outside the {shapes[-1][1:]} output")
        wins = [(rows, cols)]  # the window at each layer boundary, clipped to its extent
        for spec, shape in zip(reversed(self.specs), reversed(shapes[:-1])):
            need = window_input(spec, wins[0])
            wins.insert(0, tuple((max(a, 0), min(b, n)) for (a, b), n in zip(need, shape[1:])))
        x = x[:, :, slice(*wins[0][0]), slice(*wins[0][1])]
        for spec, layer, have, out in zip(self.specs, self.layers, wins, wins[1:]):
            if spec.kind == "conv":
                pads = [(h0 - n0, n1 - h1) for (n0, n1), (h0, h1) in zip(window_input(spec, out), have)]
                x = np.pad(x, ((0, 0), (0, 0), *pads))
                layer = copy.copy(layer)  # shares W and b with the real conv
                layer.padding = (0, 0)
            x = layer.forward(x, False)
            if spec.kind == "upsample":  # the input window [lo, hi) upsamples to [f * lo, f * hi)
                lo = [spec.factor * a for a, _ in have]
                x = x[:, :, out[0][0] - lo[0] : out[0][1] - lo[0], out[1][0] - lo[1] : out[1][1] - lo[1]]
        return x

    def backward(self, dy: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            dy = layer.backward(dy)
        return dy

    def _parts(self):
        for i, (spec, layer) in enumerate(zip(self.specs, self.layers)):
            yield f"L{i}.{spec.kind}.", layer
