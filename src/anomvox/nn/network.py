"""The array protocol of composite objects, the sequential container, and the
dense form of a window of its output.

A network is a Sequential of built layers (nn.layers).  Each layer states
its own geometry (Layer.out_shape, Layer.window_input), so a Sequential
derives its shapes and its windows by walking its layers, and the models
solve their decoder sizes against its encoder's shapes.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .layers import Conv2D, ConvTranspose2D, Layer, LayerError, Sigmoid


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

    It draws each conv's weights from rng, in layer order, by the layer
    after it: Glorot-uniform before a Sigmoid output, He-normal otherwise.
    Parameter names are "L{i}.{kind}.{param}", where a layer takes one slot
    of i, and a conv with an upsample folded in and a batchnorm that applies
    its ReLU take two: the upsample's slot before the conv's, the ReLU's
    after the batchnorm's.  So checkpoints and optimizer state keep the keys
    that the unfolded layers had.
    """

    def __init__(self, layers: Sequence[Layer], rng: np.random.Generator):
        self.layers = list(layers)
        for layer, after in zip(self.layers, [*self.layers[1:], None]):
            if isinstance(layer, (Conv2D, ConvTranspose2D)):
                fan_in = layer.in_channels * math.prod(layer.kernel)
                if isinstance(after, Sigmoid):
                    limit = np.sqrt(6.0 / (fan_in + layer.out_channels * math.prod(layer.kernel)))
                    w = rng.uniform(-limit, limit, size=layer.W.shape)
                else:
                    w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=layer.W.shape)
                layer.W = w.astype(layer.W.dtype)

    @property
    def dtype(self):
        """The dtype of the parameters."""
        return next(iter(self.params().values())).dtype

    def shapes(self, in_shape) -> list[tuple[int, int, int]]:
        """The (C, H, W) shapes of an input of in_shape and of each layer's
        output; raises LayerError where a layer cannot take its input."""
        shapes = [tuple(in_shape)]
        for layer in self.layers:
            shapes.append(layer.out_shape(shapes[-1]))
        return shapes

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train)
        return x

    def dense_window(self, in_shape, rows, cols) -> "DenseWindow":
        """forward(x, False)[:, :, r0:r1, c0:c1] for inputs x of shape
        (B, *in_shape), rows (r0, r1) and cols (c0, c1), as a chain of dense
        steps on flattened windows, one per layer, computing only what
        reaches that window.  The window each layer reads is walked back from
        the output (Layer.window_input) and clipped to the layer's input, so
        the zero padding past its border drops out.  A conv, with any
        upsample folded into it, is its matrix between its two windows
        (Conv2D.matrix, the one the training dense form gathers) plus the
        bias over its output window; a window that reads only padding is
        empty, its matrix has no rows, and its output is the bias alone.
        Any other layer runs as itself.  The same function as forward,
        summed in another order."""
        shapes = self.shapes(in_shape)
        if not all(0 <= a < b <= n for (a, b), n in zip((rows, cols), shapes[-1][1:])):
            raise LayerError(f"window {rows} x {cols} outside the {shapes[-1][1:]} output")
        wins = [(rows, cols)]  # the window at each layer boundary, clipped to its extent
        for layer, shape in zip(reversed(self.layers), reversed(shapes[:-1])):
            need = layer.window_input(wins[0])
            wins.insert(0, tuple(tuple(min(max(v, 0), n) for v in ab) for ab, n in zip(need, shape[1:])))
        window_shapes = [(c, *(b - a for a, b in win)) for (c, *_), win in zip(shapes, wins)]
        steps = []
        for i, layer in enumerate(self.layers):
            if isinstance(layer, Conv2D):
                matrix = layer.matrix(shapes[i][1:], wins[i], wins[i + 1])
                bias = np.repeat(layer.b, matrix.shape[1] // len(layer.b)) if layer.bias else None
                steps.append((matrix, bias))
            else:  # relu, sigmoid and batchnorm keep their window
                steps.append((layer, window_shapes[i]))
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
        i = 0
        for layer in self.layers:
            i += getattr(layer, "upsample", 1) > 1
            yield f"L{i}.{layer.kind}.", layer
            i += 1 + getattr(layer, "relu", False)


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
