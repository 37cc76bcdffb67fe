"""Layer specifications, output-shape algebra, and the sequential container.

A network is declared as a list of LayerSpec values.  out_shape() checks and
propagates (channels, height, width) through a spec, so architectures can be
shape-verified before any parameter is allocated, and decoder output paddings
can be solved against recorded encoder sizes.
"""

from __future__ import annotations

import math
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
    """Named paddings to explicit (ph, pw): valid=0, full=k-1."""
    if isinstance(padding, str):
        if padding == "valid":
            return (0, 0)
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


def layer_spans(specs: Sequence[LayerSpec]) -> list[tuple[int, int]]:
    """The [start, stop) spec ranges that become one layer each: an upsample
    with the stride-1 conv after it, which folds it in (a Conv2D with
    upsample=factor), a batchnorm with the relu after it, which applies it
    (a BatchNorm2D with relu=True; see nn.layers), and every other spec on
    its own.  An upsample that no such conv follows is rejected."""
    spans, i = [], 0
    while i < len(specs):
        kind, nxt = specs[i].kind, specs[i + 1] if i + 1 < len(specs) else None
        n = 2 if kind == "upsample" or (kind == "batchnorm" and nxt and nxt.kind == "relu") else 1
        if kind == "upsample" and not (nxt and nxt.kind == "conv" and nxt.stride == (1, 1)):
            raise ShapeError(f"upsample spec {i} is not followed by a stride-1 conv to fold into")
        spans.append((i, i + n))
        i += n
    return spans


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


def build_layer(
    spec: LayerSpec,
    rng: np.random.Generator,
    dtype=np.float32,
    upsample: int = 1,
    next_kind=None,
    relu: bool = False,
) -> Layer:
    """Instantiate one layer, drawing its initial parameters from rng; a conv
    built with upsample=f also runs the nearest upsample before it, and a
    batchnorm built with relu=True the ReLU after it.  A conv's bias and
    initialization follow from next_kind, the kind of the spec after it: no
    bias before batchnorm, which cancels any per-channel constant;
    Glorot-uniform weights before the sigmoid output; otherwise He-normal
    weights with a bias, for the ReLU that follows."""
    if spec.kind in ("conv", "conv_transpose"):
        pad = resolve_padding(spec.padding, spec.kernel)
        args = (spec.in_channels, spec.out_channels, spec.kernel, spec.stride, pad)
        bias = next_kind != "batchnorm"
        if spec.kind == "conv":
            layer = Conv2D(*args, bias, dtype, upsample)
        else:
            layer = ConvTranspose2D(*args, spec.output_padding, bias, dtype)
        fan_in = spec.in_channels * spec.kernel[0] * spec.kernel[1]
        fan_out = spec.out_channels * spec.kernel[0] * spec.kernel[1]
        if next_kind == "sigmoid":
            layer.W = _glorot_uniform(rng, layer.W.shape, fan_in, fan_out, dtype)
        else:
            layer.W = _he_normal(rng, layer.W.shape, fan_in, dtype)
        return layer
    if spec.kind == "maxpool":
        return MaxPool2D(spec.factor)
    if spec.kind == "batchnorm":
        if spec.in_channels is None:
            raise ShapeError("batchnorm spec needs in_channels")
        return BatchNorm2D(spec.in_channels, dtype, relu)
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

    Each layer covers the spec range in spans (layer_spans): one spec, an
    upsample and the conv that folds it in, or a batchnorm and the relu that
    it applies.  A layer is built from, and named after, the spec that holds
    its arrays: the conv of an upsample and conv, the batchnorm of a
    batchnorm and relu, or its one spec.  Parameter names are
    "L{i}.{kind}.{param}" for that spec i, so checkpoints and optimizer
    state keep the keys that the unfolded layers had.
    """

    def __init__(self, specs: Sequence[LayerSpec], rng: np.random.Generator, dtype=np.float32):
        self.specs = tuple(specs)
        self.dtype = dtype
        self.spans = layer_spans(self.specs)
        self.owners = [b - 1 if self.specs[a].kind == "upsample" else a for a, b in self.spans]
        kinds = [spec.kind for spec in self.specs] + [None]
        self.layers: list[Layer] = []
        for (a, b), i in zip(self.spans, self.owners):
            fold = self.specs[a].factor if self.specs[a].kind == "upsample" else 1
            relu = b - a == 2 and self.specs[b - 1].kind == "relu"
            self.layers.append(build_layer(self.specs[i], rng, dtype, fold, kinds[b], relu))

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train)
        return x

    def dense_window(self, in_shape, rows, cols) -> "DenseWindow":
        """forward(x, False)[:, :, r0:r1, c0:c1] for inputs x of shape
        (B, *in_shape), rows (r0, r1) and cols (c0, c1), as a chain of dense
        steps on flattened windows, one per layer, computing only what
        reaches that window.  The window each layer reads is walked back from
        the output (window_input) and clipped to the layer's input, so the
        zero padding past its border drops out.  A conv, with any upsample
        folded into it, is its matrix between its two windows
        (Conv2D.matrix, the one the training dense form gathers) plus the
        bias over its output window; a window that reads only padding is
        empty, its matrix has no rows, and its output is the bias alone.
        Any other layer runs as itself.  The same function as forward,
        summed in another order."""
        shapes = [tuple(in_shape), *chain_shapes(self.specs, tuple(in_shape))]
        if not all(0 <= a < b <= n for (a, b), n in zip((rows, cols), shapes[-1][1:])):
            raise ShapeError(f"window {rows} x {cols} outside the {shapes[-1][1:]} output")
        wins = [(rows, cols)]  # the window at each spec boundary, clipped to its extent
        for spec, shape in zip(reversed(self.specs), reversed(shapes[:-1])):
            need = window_input(spec, wins[0])
            wins.insert(0, tuple(tuple(min(max(v, 0), n) for v in ab) for ab, n in zip(need, shape[1:])))
        window_shapes = [(c, *(b - a for a, b in win)) for (c, *_), win in zip(shapes, wins)]
        steps = []
        for (start, stop), layer in zip(self.spans, self.layers):
            if isinstance(layer, Conv2D):
                matrix = layer.matrix(shapes[start][1:], wins[start], wins[stop])
                bias = np.repeat(layer.b, matrix.shape[1] // len(layer.b)) if layer.bias else None
                steps.append((matrix, bias))
            else:  # relu, sigmoid and batchnorm keep their window
                steps.append((layer, window_shapes[start]))
        return DenseWindow(wins[0], steps, window_shapes[-1])

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """The input gradient for the output gradient dy, after setting every
        layer's parameter gradients.  input_grad=False, for a stack whose
        first layer is a Conv2D, skips that conv's data gradient and returns
        None."""
        first, *rest = self.layers
        for layer in reversed(rest):
            dy = layer.backward(dy)
        if input_grad:
            return first.backward(dy)
        first.backward(dy, False)
        return None

    def _parts(self):
        for i, layer in zip(self.owners, self.layers):
            yield f"L{i}.{self.specs[i].kind}.", layer


class DenseWindow:
    """A Sequential's window as dense steps (Sequential.dense_window): each
    step is a (matrix, bias or None) pair on the flattened window, or a
    (layer, window shape) pair run on the window itself.  Calls apply the
    chain in blocks of BLOCK rows, so the intermediates stay small whatever
    the batch."""

    BLOCK = 512

    def __init__(self, window, steps, out_shape):
        self.window = window
        self.steps = steps
        self.out_shape = out_shape

    def __call__(self, x: np.ndarray) -> np.ndarray:
        r, c = self.window
        x = x[:, :, slice(*r), slice(*c)].reshape(len(x), -1)
        out = np.empty((len(x), math.prod(self.out_shape)), x.dtype)
        for start in range(0, len(x), self.BLOCK):
            y = x[start : start + self.BLOCK]
            for op, arg in self.steps:
                if isinstance(op, np.ndarray):
                    y = y @ op
                    if arg is not None:
                        y += arg
                else:
                    y = op.forward(y.reshape(len(y), *arg), False).reshape(len(y), -1)
            out[start : start + self.BLOCK] = y
        return out.reshape(-1, *self.out_shape)
