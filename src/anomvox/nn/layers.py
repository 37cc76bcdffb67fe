"""Deterministic 2-D layer kernels with analytic forward/backward passes.

Data layout is (batch, channels, height, width) throughout.  Each layer keeps
one in-flight forward cache; calling backward consumes the cache produced by
the matching forward.  Parameters and their gradients are plain numpy arrays
so an optimizer can update them in place.

Both convolutions are built from one strided cross-correlation core of three
kernels, each a BLAS contraction per kernel offset over strided window views:
the correlation itself, its adjoint in the input (a scatter onto the padded
grid) and its gradient in the kernel.  Conv2D's forward is the correlation
and its data gradient the adjoint; ConvTranspose2D's forward is that adjoint
and its data gradient the correlation, so the two stay verifiable against
each other with dot-product identities.  The kernels are plain functions,
and no layer calls another layer's forward or backward, so per-layer timings
of one call never contain another layer's.
"""

from __future__ import annotations

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


def _correlate(w, xp, stride):
    """Strided valid cross-correlation of a padded input with a kernel.

    y[b, o, r, c] = sum_{k,i,j} w[o, k, i, j] * xp[b, k, r*sh + i, c*sw + j]
    for w of shape (O, K, kh, kw) and xp of shape (B, K, Hp, Wp).
    """
    kh, kw = w.shape[2:]
    sh, sw = stride
    oh = (xp.shape[2] - kh) // sh + 1
    ow = (xp.shape[3] - kw) // sw + 1
    # One GEMM per kernel offset, accumulated output-channel-first: this
    # avoids materializing the (B,K,OH,OW,kh,kw) window tensor and keeps
    # every internal transpose on axes with long contiguous runs.
    acc = np.zeros((w.shape[0], xp.shape[0], oh, ow), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            sl = xp[:, :, i : i + oh * sh : sh, j : j + ow * sw : sw]
            acc += np.tensordot(w[:, :, i, j], sl, axes=([1], [1]))
    return np.ascontiguousarray(acc.transpose(1, 0, 2, 3))


def _correlate_adjoint(w, dy, full_hw, stride):
    """Adjoint of _correlate in its input: scatters dy (B, O, OH, OW) through
    w (O, K, kh, kw) onto the padded grid (B, K, *full_hw)."""
    kh, kw = w.shape[2:]
    sh, sw = stride
    B, _, oh, ow = dy.shape
    # Accumulate channel-first and swap axes once at the end.
    acc = np.zeros((w.shape[1], B, *full_hw), dtype=dy.dtype)
    for i in range(kh):
        for j in range(kw):
            # (O,K) . (B,O,OH,OW) -> (K,B,OH,OW)
            contrib = np.tensordot(w[:, :, i, j], dy, axes=([0], [1]))
            acc[:, :, i : i + oh * sh : sh, j : j + ow * sw : sw] += contrib
    return np.ascontiguousarray(acc.transpose(1, 0, 2, 3))


def _correlate_weight_grad(w, dy, xp, stride):
    """Gradient of _correlate in its kernel, shaped and typed like w:
    g[o, k, i, j] = sum_{b,r,c} dy[b, o, r, c] * xp[b, k, r*sh + i, c*sw + j]."""
    kh, kw = w.shape[2:]
    sh, sw = stride
    oh, ow = dy.shape[2:]
    g = np.empty_like(w)
    for i in range(kh):
        for j in range(kw):
            sl = xp[:, :, i : i + oh * sh : sh, j : j + ow * sw : sw]
            g[:, :, i, j] = np.tensordot(dy, sl, axes=([0, 2, 3], [0, 2, 3]))
    return g


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
        ph, pw = self.padding
        if x.shape[2] + 2 * ph < self.kernel[0] or x.shape[3] + 2 * pw < self.kernel[1]:
            raise LayerError(
                f"conv input {x.shape[2:]} with padding {self.padding} is smaller "
                f"than the kernel {self.kernel}"
            )
        xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x
        out = self._add_bias(_correlate(self.W, xp, self.stride))
        if train:
            self._cache = (x.shape, xp)
        return out

    def backward(self, dy):
        x_shape, xp = self._pop_cache()
        ph, pw = self.padding
        self._bias_grad(dy)
        self.gW = _correlate_weight_grad(self.W, dy, xp, self.stride)
        dxp = _correlate_adjoint(self.W, dy, xp.shape[2:], self.stride)
        return dxp[:, :, ph : ph + x_shape[2], pw : pw + x_shape[3]]


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
        ypad = _correlate_adjoint(self.W, x, full_hw, self.stride)
        out = self._add_bias(ypad[:, :, ph : ph + oh, pw : pw + ow].copy())
        if train:
            self._cache = (x, full_hw)
        return out

    def backward(self, dy):
        x, full_hw = self._pop_cache()
        ph, pw = self.padding
        self._bias_grad(dy)
        dypad = np.zeros((*dy.shape[:2], *full_hw), dtype=dy.dtype)
        dypad[:, :, ph : ph + dy.shape[2], pw : pw + dy.shape[3]] = dy
        self.gW = _correlate_weight_grad(self.W, x, dypad, self.stride)
        return _correlate(self.W, dypad, self.stride)


class MaxPool2D(Layer):
    """Non-overlapping max pooling; odd trailing rows/columns are dropped.

    The gradient routes entirely to the (first) arg-max position of each
    window, so the routed gradient mass equals the upstream mass.
    """

    def __init__(self, factor: int = 2):
        self.factor = factor
        self._cache = None

    def forward(self, x, train):
        _check_4d(x, "maxpool input")
        f = self.factor
        B, C, H, W = x.shape
        oh, ow = H // f, W // f
        if oh < 1 or ow < 1:
            raise LayerError(f"maxpool factor {f} exceeds input {H}x{W}")
        if not train and f == 2:
            a = x[:, :, 0 : oh * 2 : 2, 0 : ow * 2 : 2]
            b = x[:, :, 0 : oh * 2 : 2, 1 : ow * 2 : 2]
            c = x[:, :, 1 : oh * 2 : 2, 0 : ow * 2 : 2]
            d = x[:, :, 1 : oh * 2 : 2, 1 : ow * 2 : 2]
            return np.maximum(np.maximum(a, b), np.maximum(c, d))
        blocks = x[:, :, : oh * f, : ow * f].reshape(B, C, oh, f, ow, f)
        if not train:
            return blocks.max(axis=(3, 5))
        win = blocks.transpose(0, 1, 2, 4, 3, 5).reshape(B, C, oh, ow, f * f)
        idx = win.argmax(axis=-1)
        out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
        self._cache = (x.shape, idx)
        return out

    def backward(self, dy):
        if self._cache is None:
            raise LayerError("maxpool backward without a cached training forward")
        x_shape, idx = self._cache
        self._cache = None
        f = self.factor
        B, C, H, W = x_shape
        oh, ow = H // f, W // f
        dwin = np.zeros((B, C, oh, ow, f * f), dtype=dy.dtype)
        np.put_along_axis(dwin, idx[..., None], dy[..., None], axis=-1)
        dx = np.zeros(x_shape, dtype=dy.dtype)
        dx[:, :, : oh * f, : ow * f] = (
            dwin.reshape(B, C, oh, ow, f, f).transpose(0, 1, 2, 4, 3, 5).reshape(B, C, oh * f, ow * f)
        )
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
        B, C, H, W = self._cache
        self._cache = None
        f = self.factor
        return dy.reshape(B, C, H, f, W, f).sum(axis=(3, 5))


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
        self.ggamma = (dy * xhat).sum(axis=(0, 2, 3)).astype(self.gamma.dtype, copy=False)
        self.gbeta = dy.sum(axis=(0, 2, 3)).astype(self.beta.dtype, copy=False)
        g = self.gamma[None, :, None, None]
        sum_dy = dy.sum(axis=(0, 2, 3))[None, :, None, None]
        sum_dy_xhat = (dy * xhat).sum(axis=(0, 2, 3))[None, :, None, None]
        dx = (g * inv_std[None, :, None, None] / n) * (n * dy - sum_dy - xhat * sum_dy_xhat)
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
