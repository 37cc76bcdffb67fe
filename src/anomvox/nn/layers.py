"""Deterministic 2-D layer kernels with analytic forward/backward passes.

Data layout is (batch, channels, height, width) throughout.  Each layer keeps
one in-flight forward cache; calling backward consumes the cache produced by
the matching forward.  Parameters and their gradients are plain numpy arrays
so an optimizer can update them in place.

Both convolutions are built from one strided cross-correlation core of three
kernels: the correlation itself, its adjoint in the input and its gradient in
the kernel.  They work on phase grids: the padded input is split into its
sh x sw stride phases, each laid out channel-major as one contiguous
(K, B*Hq*Wq) array, so that kernel offset (i, j) reads phase (i % sh, j % sw)
at the constant flat shift (i // sh) * Wq + j // sw.  Each offset is then one
BLAS product on a contiguous window, with no copy; outputs live on the same
(Hq, Wq) grid and are cropped once.  Stride 1 is the one-phase case.
Conv2D's forward is the correlation and its data gradient the adjoint;
ConvTranspose2D's forward is that adjoint and its data gradient the
correlation, so the two stay verifiable against each other with dot-product
identities.  The kernels are plain functions, and no layer calls another
layer's forward or backward, so per-layer timings of one call never contain
another layer's.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
from scipy.special import expit


class LayerError(Exception):
    """Shape/state misuse of a layer (bad input shape, missing cache, ...)."""


def _check_4d(x: np.ndarray, what: str) -> None:
    if x.ndim != 4:
        raise LayerError(f"{what} must be 4-D (B,C,H,W), got shape {x.shape}")


class Layer:
    """Base layer: stateless unless a subclass adds parameters."""

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def grads(self) -> dict[str, np.ndarray]:
        return {}

    def state(self) -> dict[str, np.ndarray]:
        """Non-trainable arrays that belong in a checkpoint."""
        return {}

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def astype(self, dtype) -> None:
        """Convert parameter/state arrays in place; stateless layers do nothing."""


def _phase_slices(hw, stride, offset):
    """For each stride phase (a, b) of a canvas holding an (H, W) array at
    offset: the array's slice that lies on the phase, and the slice of the
    phase grid that it fills."""
    (sh, sw), (ph, pw) = stride, offset
    for a, b in np.ndindex(sh, sw):
        r0, c0 = -((a - ph) // sh), -((b - pw) // sw)
        rows = range(r0 * sh + a - ph, hw[0], sh)
        cols = range(c0 * sw + b - pw, hw[1], sw)
        array_part = (..., slice(rows.start, None, sh), slice(cols.start, None, sw))
        grid_part = (..., slice(r0, r0 + len(rows)), slice(c0, c0 + len(cols)))
        yield (a, b), array_part, grid_part


def _grid(x, stride, canvas_hw, offset=(0, 0)):
    """Phase grids of x (B, K, H, W) placed at offset on a zero canvas:
    (sh, sw, K, B, Hq, Wq), phase (a, b) holding canvas[:, :, a::sh, b::sw]
    channel-major and zero-filled to Hq = ceil(canvas_h / sh) rows and
    Wq = ceil(canvas_w / sw) columns."""
    (sh, sw), (B, K) = stride, x.shape[:2]
    g = np.zeros((sh, sw, K, B, -(-canvas_hw[0] // sh), -(-canvas_hw[1] // sw)), x.dtype)
    for ab, xs, gs in _phase_slices(x.shape[2:], stride, offset):
        g[ab][gs] = x[xs].transpose(1, 0, 2, 3)
    return g


def _ungrid(g, hw, offset=(0, 0)):
    """Adjoint of _grid: the (B, K, *hw) array at offset, interleaved back
    from the phase grids g (sh, sw, K, B, Hq, Wq)."""
    sh, sw, K, B = g.shape[:4]
    x = np.empty((B, K, *hw), g.dtype)
    for ab, xs, gs in _phase_slices(hw, (sh, sw), offset):
        x[xs] = g[ab][gs].transpose(1, 0, 2, 3)
    return x


def _taps(w, g):
    """Each kernel offset (i, j) as its contiguous (O, K) weight slice, the
    phase (i % sh, j % sw) it reads and its flat shift (i // sh) * Wq + j // sw
    on the phase grid; plus the window length L that every tap shares."""
    kh, kw = w.shape[2:]
    sh, sw, _, B, Hq, Wq = g.shape
    wt = np.ascontiguousarray(w.transpose(2, 3, 0, 1))
    taps = [(wt[i, j], (i % sh, j % sw), i // sh * Wq + j // sw) for i in range(kh) for j in range(kw)]
    return taps, B * Hq * Wq - taps[-1][2]


def _tap_product(inner):
    """The (M, inner) @ (inner, L) product of one tap.  numpy's matmul computes
    a column times a row (inner == 1) without BLAS, about 6x slower than the
    broadcast product, which is the same single-term sum."""
    return np.multiply if inner == 1 else np.matmul


def _correlate(w, g):
    """Strided valid cross-correlation of a padded input xp (B, K, Hp, Wp),
    given as its phase grids g, with a kernel w (O, K, kh, kw):
    y[b, o, r, c] = sum_{k,i,j} w[o, k, i, j] * xp[b, k, r*sh + i, c*sw + j]
    on the (O, B, Hq, Wq) grid, of which rows < OH and columns < OW are y."""
    taps, L = _taps(w, g)
    flat = g.reshape(*g.shape[:3], -1)
    y = np.zeros((w.shape[0], flat.shape[-1]), g.dtype)
    tmp = np.empty((w.shape[0], L), g.dtype)
    product = _tap_product(w.shape[1])
    for wij, ab, s in taps:
        y[:, :L] += product(wij, flat[ab][:, s : s + L], out=tmp)
    return y.reshape(-1, *g.shape[3:])


def _correlate_adjoint(w, dyg, stride):
    """Adjoint of _correlate in its input: scatters the (O, B, Hq, Wq) grid
    dyg, zero outside the output, through w onto the phase grids."""
    gx = np.zeros((*stride, w.shape[1], *dyg.shape[1:]), dyg.dtype)
    taps, L = _taps(w, gx)
    flat, d = gx.reshape(*gx.shape[:3], -1), dyg.reshape(dyg.shape[0], -1)[:, :L]
    tmp = np.empty((w.shape[1], L), dyg.dtype)
    product = _tap_product(w.shape[0])
    for wij, ab, s in taps:
        flat[ab][:, s : s + L] += product(wij.T, d, out=tmp)
    return gx


def _correlate_weight_grad(w, dyg, g):
    """Gradient of _correlate in its kernel, shaped and typed like w, for the
    output gradient on the grid dyg (zero outside the output):
    g[o, k, i, j] = sum_{b,r,c} dy[b, o, r, c] * xp[b, k, r*sh + i, c*sw + j]."""
    taps, L = _taps(w, g)
    flat, d = g.reshape(*g.shape[:3], -1), dyg.reshape(dyg.shape[0], -1)[:, :L]
    gw = np.empty((*w.shape[2:], *w.shape[:2]), w.dtype)
    for (_, ab, s), out in zip(taps, gw.reshape(-1, *w.shape[:2])):
        np.matmul(d, flat[ab][:, s : s + L].T, out=out)
    return np.ascontiguousarray(gw.transpose(2, 3, 0, 1))


class _ConvBase(Layer):
    """Kernel, optional per-output-channel bias and their gradients.

    W is laid out as the kernel of the underlying correlation: Conv2D
    correlates in -> out, so W is (out, in, kh, kw); a transposed conv is the
    adjoint of a correlation out -> in, so W is (in, out, kh, kw).
    """

    what = "conv"
    transposed = False

    def __init__(
        self, in_channels, out_channels, kernel, stride, padding, bias=True, dtype=np.float32
    ):
        w_channels = (in_channels, out_channels) if self.transposed else (out_channels, in_channels)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding  # (ph, pw), already resolved to ints
        self.bias = bias
        self.W = np.zeros((*w_channels, *kernel), dtype=dtype)
        self.b = np.zeros(out_channels, dtype=dtype)
        self.gW = np.zeros_like(self.W)
        self.gb = np.zeros_like(self.b)
        self._cache = None

    def params(self):
        return {"W": self.W, "b": self.b} if self.bias else {"W": self.W}

    def grads(self):
        return {"W": self.gW, "b": self.gb} if self.bias else {"W": self.gW}

    def astype(self, dtype):
        self.W = self.W.astype(dtype)
        self.b = self.b.astype(dtype)
        self.gW = np.zeros_like(self.W)
        self.gb = np.zeros_like(self.b)

    def _check_input(self, x):
        _check_4d(x, f"{self.what} input")
        if x.shape[1] != self.in_channels:
            raise LayerError(f"{self.what} expects {self.in_channels} channels, got {x.shape[1]}")

    def _pop_cache(self):
        if self._cache is None:
            raise LayerError(f"{self.what} backward without a cached training forward")
        cache, self._cache = self._cache, None
        return cache

    def _add_bias(self, out):
        if self.bias:
            out += self.b[None, :, None, None]
        return out

    def _bias_grad(self, dy):
        if self.bias:
            self.gb = dy.sum(axis=(0, 2, 3)).astype(self.b.dtype, copy=False)


class Conv2D(_ConvBase):
    """Strided 2-D convolution (cross-correlation), optionally biased.

    bias=False is used when batch normalization follows: the normalization
    cancels any per-channel constant, so the bias would be a flat direction.
    """

    def forward(self, x, train):
        self._check_input(x)
        (kh, kw), (sh, sw) = self.kernel, self.stride
        hp, wp = (n + 2 * p for n, p in zip(x.shape[2:], self.padding))
        if hp < kh or wp < kw:
            raise LayerError(
                f"conv input {x.shape[2:]} with padding {self.padding} is smaller "
                f"than the kernel {self.kernel}"
            )
        g = _grid(x, self.stride, (hp, wp), self.padding)
        y = _ungrid(_correlate(self.W, g)[None, None], ((hp - kh) // sh + 1, (wp - kw) // sw + 1))
        if train:
            self._cache = (x.shape[2:], g)
        return self._add_bias(y)

    def backward(self, dy):
        hw, g = self._pop_cache()
        self._bias_grad(dy)
        dyg = _grid(dy, (1, 1), g.shape[4:])[0, 0]
        self.gW = _correlate_weight_grad(self.W, dyg, g)
        return _ungrid(_correlate_adjoint(self.W, dyg, self.stride), hw, self.padding)


class ConvTranspose2D(_ConvBase):
    """Strided transposed convolution; adjoint of Conv2D with the same geometry.

    output size = (in - 1) * stride - 2 * padding + kernel + output_padding,
    with the output_padding rows/columns appended at the bottom/right edge.
    """

    what = "transposed conv"
    transposed = True

    def __init__(
        self,
        in_channels,
        out_channels,
        kernel,
        stride,
        padding,
        output_padding=(0, 0),
        bias=True,
        dtype=np.float32,
    ):
        if output_padding[0] >= stride[0] or output_padding[1] >= stride[1]:
            raise LayerError(f"output_padding {output_padding} must be < stride {stride}")
        super().__init__(in_channels, out_channels, kernel, stride, padding, bias, dtype)
        self.output_padding = output_padding

    def forward(self, x, train):
        self._check_input(x)
        ph, pw = self.padding
        full_hw = tuple(
            (n - 1) * s + k + op
            for n, s, k, op in zip(x.shape[2:], self.stride, self.kernel, self.output_padding)
        )
        oh, ow = full_hw[0] - 2 * ph, full_hw[1] - 2 * pw
        if oh <= 0 or ow <= 0:
            raise LayerError(f"transposed conv output collapsed to {oh}x{ow}")
        grid_hw = tuple(-(-n // st) for n, st in zip(full_hw, self.stride))
        xg = _grid(x, (1, 1), grid_hw)[0, 0]
        y = _ungrid(_correlate_adjoint(self.W, xg, self.stride), (oh, ow), self.padding)
        if train:
            self._cache = (x.shape[2:], full_hw, xg)
        return self._add_bias(y)

    def backward(self, dy):
        hw, full_hw, xg = self._pop_cache()
        self._bias_grad(dy)
        g = _grid(dy, self.stride, full_hw, self.padding)
        self.gW = _correlate_weight_grad(self.W, xg, g)
        return _ungrid(_correlate(self.W, g)[None, None], hw)


class MaxPool2D(Layer):
    """Non-overlapping max pooling; odd trailing rows/columns are dropped.

    The gradient routes entirely to the first position, in row-major order,
    that holds the maximum of its window, so the routed gradient mass equals
    the upstream mass.
    """

    def __init__(self, factor: int = 2):
        self.factor = factor
        self._cache = None

    def _views(self, x):
        """The f*f strided views of x, one per window position in row-major
        order, each (B, C, H // f, W // f)."""
        f = self.factor
        oh, ow = x.shape[2] // f, x.shape[3] // f
        return [x[:, :, p : oh * f : f, q : ow * f : f] for p, q in np.ndindex(f, f)]

    def forward(self, x, train):
        _check_4d(x, "maxpool input")
        f = self.factor
        if x.shape[2] < f or x.shape[3] < f:
            raise LayerError(f"maxpool factor {f} exceeds input {x.shape[2]}x{x.shape[3]}")
        views = self._views(x)
        out = reduce(np.maximum, views)
        if train:
            # First-match masks: the first view, in row-major window order,
            # that holds the maximum takes the window's gradient.
            masks = [views[0] == out]
            taken = masks[0].copy()
            for v in views[1:]:
                masks.append((v == out) & ~taken)
                taken |= masks[-1]
            self._cache = (x.shape, masks)
        return out

    def backward(self, dy):
        if self._cache is None:
            raise LayerError("maxpool backward without a cached training forward")
        x_shape, masks = self._cache
        self._cache = None
        dx = np.zeros(x_shape, dtype=dy.dtype)
        for v, m in zip(self._views(dx), masks):
            np.multiply(dy, m, out=v)
        return dx


class Upsample2D(Layer):
    """Nearest-neighbor upsampling by an integer factor."""

    def __init__(self, factor: int = 2):
        self.factor = factor
        self._cache = None

    def forward(self, x, train):
        _check_4d(x, "upsample input")
        f = self.factor
        if train:
            self._cache = x.shape
        return x.repeat(f, axis=2).repeat(f, axis=3)

    def backward(self, dy):
        if self._cache is None:
            raise LayerError("upsample backward without a cached training forward")
        self._cache = None
        f = self.factor
        rows = (reduce(np.add, [dy[:, :, p::f, q::f] for q in range(f)]) for p in range(f))
        return reduce(np.add, rows)


class BatchNorm2D(Layer):
    """Per-channel batch normalization with learned scale and shift.

    Training uses batch statistics and updates the running estimates with
    momentum 0.1; inference uses the running estimates and refuses to run
    before any training batch has been seen.
    """

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5, dtype=np.float32):
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.batches_tracked = 0
        self.ggamma = np.zeros_like(self.gamma)
        self.gbeta = np.zeros_like(self.beta)
        self._cache = None

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def grads(self):
        return {"gamma": self.ggamma, "beta": self.gbeta}

    def state(self):
        return {
            "running_mean": self.running_mean,
            "running_var": self.running_var,
            "batches_tracked": np.array([self.batches_tracked], dtype=np.int64),
        }

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        self.running_mean = state["running_mean"].astype(self.running_mean.dtype)
        self.running_var = state["running_var"].astype(self.running_var.dtype)
        self.batches_tracked = int(state["batches_tracked"][0])

    def astype(self, dtype):
        self.gamma = self.gamma.astype(dtype)
        self.beta = self.beta.astype(dtype)
        self.running_mean = self.running_mean.astype(dtype)
        self.running_var = self.running_var.astype(dtype)
        self.ggamma = np.zeros_like(self.gamma)
        self.gbeta = np.zeros_like(self.beta)

    def forward(self, x, train):
        _check_4d(x, "batchnorm input")
        if x.shape[1] != self.channels:
            raise LayerError(f"batchnorm expects {self.channels} channels, got {x.shape[1]}")
        if train:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            m = self.momentum
            self.running_mean = ((1 - m) * self.running_mean + m * mean).astype(
                self.running_mean.dtype
            )
            self.running_var = ((1 - m) * self.running_var + m * var).astype(
                self.running_var.dtype
            )
            self.batches_tracked += 1
        else:
            if self.batches_tracked == 0:
                raise LayerError("batchnorm inference before any training batch")
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        out = self.gamma[None, :, None, None] * xhat + self.beta[None, :, None, None]
        if train:
            self._cache = (xhat, inv_std.astype(x.dtype))
        return out.astype(x.dtype, copy=False)

    def backward(self, dy):
        if self._cache is None:
            raise LayerError("batchnorm backward without a cached training forward")
        xhat, inv_std = self._cache
        self._cache = None
        n = dy.shape[0] * dy.shape[2] * dy.shape[3]
        sum_dy_xhat = (dy * xhat).sum(axis=(0, 2, 3))
        sum_dy = dy.sum(axis=(0, 2, 3))
        self.ggamma = sum_dy_xhat.astype(self.gamma.dtype, copy=False)
        self.gbeta = sum_dy.astype(self.beta.dtype, copy=False)
        g = self.gamma[None, :, None, None]
        dx = (g * inv_std[None, :, None, None] / n) * (
            n * dy - sum_dy[None, :, None, None] - xhat * sum_dy_xhat[None, :, None, None]
        )
        return dx.astype(dy.dtype, copy=False)


class ReLU(Layer):
    def __init__(self):
        self._cache = None

    def forward(self, x, train):
        if train:
            self._cache = x > 0
        return np.maximum(x, 0)

    def backward(self, dy):
        if self._cache is None:
            raise LayerError("relu backward without a cached training forward")
        mask = self._cache
        self._cache = None
        return dy * mask


class Sigmoid(Layer):
    def __init__(self):
        self._cache = None

    def forward(self, x, train):
        out = expit(x).astype(x.dtype, copy=False)
        if train:
            self._cache = out
        return out

    def backward(self, dy):
        if self._cache is None:
            raise LayerError("sigmoid backward without a cached training forward")
        out = self._cache
        self._cache = None
        return dy * out * (1.0 - out)
