"""Deterministic 2-D layer kernels with analytic forward/backward passes.

Data layout is (batch, channels, height, width) throughout.  The Layer base
class states the array protocol once: a layer names its trainable arrays in
param_names (the gradient of p lives in g{p}) and its checkpointed state in
state_names; params(), grads() and state() return these plain numpy arrays,
which an optimizer updates in place, and set_params()/set_state() replace
them, cast to the dtype of the array replaced.  A training forward leaves one
in-flight cache that the matching backward takes with _take_cache().  The
base class states each layer's geometry too, which pointwise layers keep and
the others override: out_shape((C, H, W)) is the shape of the output, by the
rule that forward itself applies, and window_input the input range that an
output window reads, which Sequential walks back through its layers.  The
conv arithmetic is Dumoulin and Visin's (arXiv:1603.07285).

Both convolutions are built from one strided cross-correlation core of three
kernels: the correlation itself, its adjoint in the input and its gradient in
the kernel.  They work on phase grids: the padded input is split into its
sh x sw stride phases, each laid out channel-major as one contiguous
(K, B*Hq*Wq) array, so that kernel offset (tap) (i, j) reads phase
(i % sh, j % sw) at the constant flat shift (i // sh) * Wq + j // sw, a
contiguous window of length L = B*Hq*Wq - the largest shift.  Outputs live on
the same (Hq, Wq) grid and are cropped once.  Stride 1 is the one-phase case.

One rule picks how the taps' products run, from the channel count that a
tap's product sums over: K for the correlation, O for the adjoint.  From
THIN channels on, each tap is one BLAS product on its window, read in place.
Below THIN such a product runs far below the machine's rate, so the taps are
stacked into that dimension and run as one product, the unrolled convolution
of Chellapilla, Puri and Simard ("High performance convolutional neural
networks for document processing", 2006); Anderson et al. ("Low-memory
GEMM-based convolution algorithms for deep neural networks", 2017) compare
it with the per-tap accumulation.  The correlation copies its taps' windows,
tap-major, into one (taps*K, L) column array and runs
(O, taps*K) @ (taps*K, L).  The adjoint gathers instead of scattering: each
phase stacks, for the n taps that read it, the windows of the dy grid
(prefixed with zeros by the largest shift) from which those taps' outputs
came, and runs one (K, n*O) @ (n*O, B*Hq*Wq) product.  The kernel gradient's
tap product (O, L) @ (L, K) sums over the long L, but is thin in K or O; it
reuses the stacked form of the thin side: (O, L) @ (L, taps*K) on the
correlation's columns, else, per phase, (n*O, B*Hq*Wq) @ (B*Hq*Wq, K) on
the adjoint's dy windows.  Where the summed side is wide but the output side
thin (a correlation with fewer than THIN outputs O, an adjoint with fewer
than THIN outputs K), the weights are stacked instead of the windows: one
(taps*rows, C) @ (C, N) product reads the input once, and each tap's rows of
it are then shift-added onto the output in tap order, as the per-tap
products were.
Conv2D's forward is the correlation and its data gradient the adjoint;
ConvTranspose2D's forward is that adjoint and its data gradient the
correlation, so the two stay verifiable against each other with dot-product
identities.  The kernels are plain functions, and no layer calls another
layer's forward or backward, so per-layer timings of one call never contain
another layer's.

On tiny maps a training step runs a Conv2D without an upsample as one dense
matrix instead: convolution written as a matrix (Dumoulin and Visin, "A guide
to convolution arithmetic for deep learning", arXiv:1603.07285).  For a
K-channel H x W input and an O-channel OH x OW output the matrix M is
(K*H*W) x (O*OH*OW), and every entry is one tap of W or zero, so M is W,
with one zero appended, gathered through an int32 index map cached on the
conv's geometry.  The forward is x.reshape(B, K*H*W) @ M, the data gradient
dy @ M.T, and the matrix gradient x.T @ dy folds back onto W with one
np.bincount over the index map.  One rule picks the form: the dense one when
M has at most DENSE entries.  On the SAE's 2x2 to 6x6 maps that is three
GEMMs where the tap form runs nine thin products, many of them over zero
padding; M grows with the square of the map, so on larger maps the dense
form does many times the convolution's work and loses.  Inference keeps the
tap form: SAEModel.slice_center_latents encodes one box over a slab of
whole slices, its first conv once and the rest per pooling-phase crop, far
too large for M, and in float32, the pipeline's dtype, must stay
bit-identical to encode on the patches, so encode has to sum in the same
order.  (In float64 it agrees with encode to rounding only, because dgemm
rounds a product column differently with the product's width.)
Conv2D.matrix gathers M; between two
windows instead of whole maps it is each conv step of the SAE's center
decode (Sequential.dense_window).  A conv with an upsample folded in (below)
gathers its phase bank, not W, and interleaves the phases' columns.

A nearest upsample by f followed by a stride-1 conv is one Conv2D with
upsample=f, computed on the small grid.  Per axis, with u[m] = x[m // f] the
upsampled input and p the conv's padding, output o = f q + c reads

    y[o] = sum_i W[i] u[o + i - p] = sum_i W[i] x[q + (c + i - p) // f],

so each of the f output phases c is a stride-1 correlation of x, padded by
pad = ceil(p / f), with its own kernel K_c[j] = sum of the W[i] with
(c + i - p) // f + pad = j.  This is the resize-convolution identity (Odena,
Dumoulin and Olah, "Deconvolution and Checkerboard Artifacts", Distill 2016)
in the sub-pixel form of Shi et al. (CVPR 2016): the f*f phase kernels are
stacked as f*f*out output channels of one correlation, whose
(f, f, out, B, Hq, Wq) output is the phase-grid layout that _ungrid
interleaves.  For k = 3, f = 2 and "full" padding each phase kernel is 2x2
(K[t] = W[2 - t] + W[3 - t] per axis in transposed-conv terms), and the
four of them run on the 6x6 map, padded to 8x8, instead of one 3x3 kernel
on the 16x16 padded upsample.  The backward is Conv2D's own,
with dy split into its f x f phases, and each W tap collects the gradients
of the phase-kernel taps it was added to.

A batch normalization followed by a ReLU is one BatchNorm2D with relu=True,
which applies the ReLU to its own output, the in-place activated batch norm
of Rota Bulo, Porzi and Kontschieder (CVPR 2018); the statistics are Ioffe
and Szegedy's (ICML 2015).  The pair then makes fewer full-size passes over
the activations than the two layers did.  The training forward reduces over
a (B, C, H*W) view with np.einsum, kept off BLAS so that its sums do not
depend on the thread count, centres x into one buffer and scales that buffer
in place into xhat, and clips the affine output in place; the cache is xhat
and the ReLU's bool mask.  The backward masks dy in place, takes the two
sums it needs, and builds dx in place in the cached xhat.  Inference is
x * scale + shift, clipped in place.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np
from scipy.special import expit


class LayerError(Exception):
    """Shape/state misuse of a layer (bad input shape, missing cache, ...)."""


def _check_4d(x: np.ndarray, what: str) -> None:
    if x.ndim != 4:
        raise LayerError(f"{what} must be 4-D (B,C,H,W), got shape {x.shape}")


class Layer:
    """Base layer: stateless unless a subclass names parameters or state, and
    pointwise unless it overrides out_shape and window_input.  kind names
    the layer in checkpoint keys and error messages.  A layer object serves
    one step at a time: its in-flight cache and its gradients are plain
    attributes, so steps that run at once each need a layer of their own
    (the SAE's training worker is a forked copy of the model,
    models._ShardWorker)."""

    kind = "layer"
    param_names: tuple[str, ...] = ()
    state_names: tuple[str, ...] = ()
    _cache = None

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.param_names}

    def grads(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, "g" + name) for name in self.param_names}

    def state(self) -> dict[str, np.ndarray]:
        """Non-trainable arrays that belong in a checkpoint."""
        return {name: getattr(self, name) for name in self.state_names}

    def set_params(self, values: dict[str, np.ndarray]) -> None:
        self._load(self.param_names, values)

    def set_state(self, values: dict[str, np.ndarray]) -> None:
        self._load(self.state_names, values)

    def _load(self, names, values) -> None:
        for name in names:
            setattr(self, name, np.asarray(values[name]).astype(getattr(self, name).dtype))

    def _take_cache(self):
        if self._cache is None:
            raise LayerError(f"{self.kind} backward without a cached training forward")
        cache, self._cache = self._cache, None
        return cache

    def out_shape(self, shape: tuple[int, int, int]) -> tuple[int, int, int]:
        """The (C, H, W) output shape for an input of shape (C, H, W), which
        forward computes too; raises LayerError for an input the layer cannot
        take."""
        return tuple(shape)

    def window_input(self, window):
        """The input range [lo, hi) per axis that the output window
        ((r0, r1), (c0, c1)) reads, before clipping to the input's extent."""
        return window

    def _check_channels(self, c: int, expected: int) -> None:
        if c != expected:
            raise LayerError(f"{self.kind} expects {expected} channels, got {c}")

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError


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


# The channel count below which a tap product is thin and the taps are
# stacked (see the module docstring).  Timed per layer at the models' shapes
# on a 2-core OpenBLAS host, stacking wins at 1 and 2 channels, is mixed at 4
# and loses at 16; at 8 the stacked adjoint still wins but the stacked
# correlation mostly loses.
THIN = 8


def _taps(w, g):
    """Each kernel offset (i, j), in row-major order, as the phase
    (i % sh, j % sw) it reads and its flat shift (i // sh) * Wq + j // sw on the
    phase grid g; plus the window length L that every tap shares (0 for an
    empty batch)."""
    kh, kw = w.shape[2:]
    sh, sw, _, B, Hq, Wq = g.shape
    taps = [((i % sh, j % sw), i // sh * Wq + j // sw) for i in range(kh) for j in range(kw)]
    return taps, max(B * Hq * Wq - taps[-1][1], 0)


def _tap_groups(w, g):
    """The taps of _taps in the groups that one product each serves, each with
    its (O, n*K) weight block, tap-major: all n taps in one group when the K
    channels are fewer than THIN, else one tap per group."""
    taps, L = _taps(w, g)
    O, K = w.shape[:2]
    n = len(taps) if K < THIN else 1
    blocks = np.ascontiguousarray(w.transpose(0, 2, 3, 1).reshape(O, -1, n * K).transpose(1, 0, 2))
    return [(block, taps[i * n : (i + 1) * n]) for i, block in enumerate(blocks)], L


def _stack(windows):
    """Equal-length windows as the row blocks of one array; one window stays
    a view."""
    return windows[0] if len(windows) == 1 else np.concatenate(windows)


def _dy_windows(dyg, taps, L, stride):
    """For each phase that taps read: the phase, the indices of those taps,
    and the windows of the (O, B, Hq, Wq) grid dyg, cut to its first L cells
    and prefixed with zeros by the largest shift, from which their outputs
    came, stacked tap-major as (n*O, B*Hq*Wq)."""
    (O, *grid), S = dyg.shape, taps[-1][1]
    N = math.prod(grid)
    dz = np.zeros((O, S + N), dyg.dtype)
    dz[:, S : S + L] = dyg.reshape(O, -1)[:, :L]
    for ab in np.ndindex(*stride):
        on = [t for t, (p, _) in enumerate(taps) if p == ab]
        if on:
            yield ab, on, _stack([dz[:, S - taps[t][1] : S - taps[t][1] + N] for t in on])


def _correlate(w, g):
    """Strided valid cross-correlation of a padded input xp (B, K, Hp, Wp),
    given as its phase grids g, with a kernel w (O, K, kh, kw):
    y[b, o, r, c] = sum_{k,i,j} w[o, k, i, j] * xp[b, k, r*sh + i, c*sw + j]
    on the (O, B, Hq, Wq) grid, of which rows < OH and columns < OW are y.
    With fewer than THIN outputs O from THIN inputs K on, each phase runs its
    taps' stacked weights in one product, and each tap's rows of it are
    shift-added onto y in tap order."""
    O, K = w.shape[:2]
    flat = g.reshape(*g.shape[:3], -1)
    y = np.zeros((O, flat.shape[-1]), g.dtype)
    if O < THIN <= K:
        taps, L = _taps(w, g)
        wt = w.transpose(2, 3, 0, 1).reshape(-1, O, K)
        rows = {}
        for ab in np.ndindex(*g.shape[:2]):
            on = [t for t, (p, _) in enumerate(taps) if p == ab]
            if on:
                rows.update(zip(on, (wt[on].reshape(-1, K) @ flat[ab]).reshape(len(on), O, flat.shape[-1])))
        y[:, :L] = rows[0][:, :L]  # tap (0, 0) reads at shift 0
        for t, (_, s) in enumerate(taps[1:], 1):
            y[:, :L] += rows[t][:, s : s + L]
        return y.reshape(O, *g.shape[3:])
    groups, L = _tap_groups(w, g)
    tmp = np.empty((O, L), g.dtype)
    for n, (block, taps) in enumerate(groups):
        columns = _stack([flat[ab][:, s : s + L] for ab, s in taps])
        if n == 0:
            np.matmul(block, columns, out=y[:, :L])
        else:
            y[:, :L] += np.matmul(block, columns, out=tmp)
    return y.reshape(O, *g.shape[3:])


def _correlate_adjoint(w, dyg, stride):
    """Adjoint of _correlate in its input: carries the (O, B, Hq, Wq) grid
    dyg, zero outside the output, back through w onto the phase grids.  With
    fewer than THIN channels O each phase gathers its taps' dy windows in
    one product.  Otherwise each tap's product is scattered onto its window:
    with fewer than THIN channels K all taps' products are one, of their
    stacked weights, and else each tap runs alone."""
    O, K = w.shape[:2]
    gx = np.zeros((*stride, K, *dyg.shape[1:]), dyg.dtype)
    taps, L = _taps(w, gx)
    flat = gx.reshape(*gx.shape[:3], -1)
    if O < THIN:
        wk = w.transpose(1, 2, 3, 0).reshape(K, -1, O)
        for ab, on, rows in _dy_windows(dyg, taps, L, stride):
            np.matmul(wk[:, on].reshape(K, -1), rows, out=flat[ab])
        return gx
    d = dyg.reshape(O, -1)[:, :L]
    if K < THIN:
        products = (w.transpose(2, 3, 1, 0).reshape(-1, O) @ d).reshape(len(taps), K, L)
        for p, (ab, s) in zip(products, taps):
            flat[ab][:, s : s + L] += p
        return gx
    wt = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(-1, O, K)
    tmp = np.empty((K, L), dyg.dtype)
    for wij, (ab, s) in zip(wt, taps):
        flat[ab][:, s : s + L] += np.matmul(wij.T, d, out=tmp)
    return gx


def _correlate_weight_grad(w, dyg, g):
    """Gradient of _correlate in its kernel, shaped and typed like w, for the
    output gradient on the grid dyg (zero outside the output):
    g[o, k, i, j] = sum_{b,r,c} dy[b, o, r, c] * xp[b, k, r*sh + i, c*sw + j].
    With K thin it runs on the correlation's stacked columns; else, with O
    thin, on the adjoint's stacked dy windows."""
    O, K = w.shape[:2]
    flat = g.reshape(*g.shape[:3], -1)
    if O < THIN <= K:
        taps, L = _taps(w, g)
        gw = np.empty((len(taps), O, K), w.dtype)
        for ab, on, rows in _dy_windows(dyg, taps, L, g.shape[:2]):
            gw[on] = np.matmul(rows, flat[ab].T).reshape(len(on), O, K)
        return np.ascontiguousarray(gw.transpose(1, 2, 0)).reshape(w.shape)
    groups, L = _tap_groups(w, g)
    d = dyg.reshape(O, -1)[:, :L]
    gw = np.empty((len(groups), *groups[0][0].shape), w.dtype)
    for (_, taps), out in zip(groups, gw):
        np.matmul(d, _stack([flat[ab][:, s : s + L] for ab, s in taps]).T, out=out)
    return np.ascontiguousarray(gw.reshape(len(groups), O, -1, K).transpose(1, 3, 0, 2)).reshape(w.shape)


# The most entries that a conv's dense matrix may have for a training step
# to run the conv as that matrix (see the module docstring).  Timed forward
# plus backward at batch 450 on a 2-core OpenBLAS host, 16 -> 16 3x3 convs
# run dense in 0.1-0.45x the tap form's time up to 147,456 entries, in
# 0.4-0.85x at 313,600 and in 0.7-1.05x at 589,824; from 1.2 M entries on
# (SAE enc1 and dec4, AE enc5 at 56x48) the tap form is 2x to 5x faster.
# The bound keeps a factor of two below the cross-over.
DENSE = 2**18


@lru_cache(maxsize=32)
def _dense_index(w_shape, stride, padding, window, out_window):
    """The int32 index map of a conv with kernel shape w_shape (O, K, kh, kw),
    stride and padding from an input window to an output window, each an
    absolute ((r0, r1), (c0, c1)) range: entry [(k, h, w), (o, r, c)] is the
    flat index into W of the tap w[o, k, i, j] that links input pixel (h, w)
    to output pixel (r, c), and W's size where no tap does.  Read-only, as it
    is cached."""
    O, K, kh, kw = w_shape
    (sh, sw), (ph, pw) = stride, padding
    (h0, h1), (w0, w1), (r0, r1), (c0, c1) = *window, *out_window
    k, h, w, o, r, c = np.ogrid[:K, h0:h1, w0:w1, :O, r0:r1, c0:c1]
    i, j = h - r * sh + ph, w - c * sw + pw
    tap = ((o * K + k) * kh + i) * kw + j
    index = np.where((i >= 0) & (i < kh) & (j >= 0) & (j < kw), tap, O * K * kh * kw)
    index = index.astype(np.int32).reshape(math.prod(index.shape[:3]), math.prod(index.shape[3:]))
    index.flags.writeable = False
    return index


def _upsample_taps(kernel, f, padding):
    """Per axis, for a nearest upsample by f before a k-tap conv with
    padding p: the (f, k) array whose [c, i] is the offset j, from 0, at
    which output phase c reads its input through tap i, with the input
    zero-padded by pad = ceil(p / f) before its first row (see the module
    docstring); and the pads."""
    pads = tuple(-(-p // f) for p in padding)
    maps = [(np.arange(f)[:, None] + np.arange(k) - p) // f + q for k, p, q in zip(kernel, padding, pads)]
    return maps, pads


class _ConvBase(Layer):
    """Kernel, optional per-output-channel bias and their gradients.

    W is laid out as the kernel of the underlying correlation: Conv2D
    correlates in -> out, so W is (out, in, kh, kw); a transposed conv is the
    adjoint of a correlation out -> in, so W is (in, out, kh, kw).
    """

    kind = "conv"
    transposed = False
    param_names = ("W", "b")

    def __init__(
        self, in_channels, out_channels, kernel, stride, padding, bias=True, dtype=np.float32
    ):
        w_channels = (in_channels, out_channels) if self.transposed else (out_channels, in_channels)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding  # (ph, pw)
        self.bias = bias
        if not bias:
            self.param_names = ("W",)
        self.W = np.zeros((*w_channels, *kernel), dtype=dtype)
        self.b = np.zeros(out_channels, dtype=dtype)
        self.gW = np.zeros_like(self.W)
        self.gb = np.zeros_like(self.b)

    def _add_bias(self, out):
        if self.bias:
            out += self.b[None, :, None, None]
        return out

    def _bias_grad(self, dy):
        if self.bias:
            self.gb = dy.sum(axis=(0, 2, 3)).astype(self.b.dtype, copy=False)


class Conv2D(_ConvBase):
    """Strided 2-D convolution (cross-correlation), optionally biased.

    upsample=f convolves the nearest upsample of the input by f instead,
    computed on the small grid (see the module docstring); it needs stride 1.
    """

    def __init__(
        self, in_channels, out_channels, kernel, stride, padding, bias=True, dtype=np.float32, upsample=1
    ):
        if upsample > 1 and stride != (1, 1):
            raise LayerError(f"an upsampling conv needs stride 1, got {stride}")
        super().__init__(in_channels, out_channels, kernel, stride, padding, bias, dtype)
        self.upsample = upsample

    def out_shape(self, shape):
        """(out, OH, OW), OH = (f H + 2 ph - kh) // sh + 1 on the input
        upsampled by f, and OW likewise."""
        c, *hw = shape
        self._check_channels(c, self.in_channels)
        f = self.upsample
        padded = [f * n + 2 * p for n, p in zip(hw, self.padding)]
        if padded[0] < self.kernel[0] or padded[1] < self.kernel[1]:
            upsampled = f" upsampled by {f}" if f > 1 else ""
            raise LayerError(
                f"conv input {tuple(hw)}{upsampled} with padding {self.padding} "
                f"is smaller than the kernel {self.kernel}"
            )
        return (self.out_channels, *((n - k) // s + 1 for n, k, s in zip(padded, self.kernel, self.stride)))

    def window_input(self, window):
        """Stride 1 only: the output window widened by the kernel and
        shifted by the padding, and with an upsample the cells of the small
        grid that this upsampled window reads."""
        if self.stride != (1, 1):
            raise LayerError(f"no window rule for a conv with stride {self.stride}")
        f, geometry = self.upsample, zip(window, self.padding, self.kernel)
        return tuple(((a - p) // f, -(-(b - p + k - 1) // f)) for (a, b), p, k in geometry)

    def _geometry(self, shape):
        """The correlation kernel for an input of shape (C, H, W), its padding
        and canvas, the output size, and the tap maps of _upsample_taps (None
        without an upsample): W, or the f*f output phases' kernels stacked as
        f*f*out channels."""
        hw, out_hw, f = shape[1:], self.out_shape(shape)[1:], self.upsample
        if f == 1:
            return self.W, self.padding, tuple(n + 2 * p for n, p in zip(hw, self.padding)), out_hw, None
        (jh, jw), pad = _upsample_taps(self.kernel, f, self.padding)
        taps = (jh.max() + 1, jw.max() + 1)
        bank = np.zeros((f, f, self.out_channels, self.in_channels, *taps), self.W.dtype)
        c, d = np.ogrid[:f, :f]
        for a, b in np.ndindex(*self.kernel):
            bank[c, d, :, :, jh[c, a], jw[d, b]] += self.W[:, :, a, b]
        canvas = tuple(max(p + n, -(-m // f) + t - 1) for p, n, m, t in zip(pad, hw, out_hw, taps))
        return bank.reshape(-1, *bank.shape[3:]), pad, canvas, out_hw, (jh, jw)

    def _no_input_grad(self, dy, hw):
        """What backward(dy, input_grad=False) returns once the parameter
        gradients are set: a read-only all-NaN view shaped like the input,
        which costs nothing, still tells shape-only readers the input's
        shape, and poisons any use as a gradient."""
        return np.broadcast_to(np.array(np.nan, dy.dtype), (len(dy), self.in_channels, *hw))

    def matrix(self, hw, window, out_window):
        """The conv, with any upsample folded in, as the dense matrix, without
        the bias, from an input window of an hw-sized input to an output
        window, each an absolute ((r0, r1), (c0, c1)) range: rows (k, h, w),
        columns (o, r, c).  It gathers _geometry's correlation kernel through
        _dense_index onto the cells q whose outputs f q + c cover the window,
        then interleaves the f x f phases' columns and crops to the window."""
        w, pad, *_ = self._geometry((self.in_channels, *hw))
        f, O = self.upsample, self.out_channels
        cells = tuple((a // f, -(-b // f)) for a, b in out_window)
        index = _dense_index(w.shape, self.stride, pad, window, cells)
        sizes = [b - a for a, b in cells]
        phases = np.append(w, np.zeros(1, w.dtype))[index].reshape(len(index), f, f, O, *sizes)
        grid = phases.transpose(0, 3, 4, 1, 5, 2).reshape(len(index), O, *(f * n for n in sizes))
        crop = (..., *(slice(a - f * q, b - f * q) for (a, b), (q, _) in zip(out_window, cells)))
        return grid[crop].reshape(len(index), O * math.prod(b - a for a, b in out_window))

    def forward(self, x, train):
        _check_4d(x, "conv input")
        hw = x.shape[2:]
        w, pad, canvas, out_hw, maps = self._geometry(x.shape[1:])
        f = self.upsample
        size = self.in_channels * math.prod(hw) * self.out_channels * math.prod(out_hw)
        if train and f == 1 and size <= DENSE:
            windows = tuple(tuple((0, n) for n in s) for s in (hw, out_hw))
            matrix = self.matrix(hw, *windows)
            xf = x.reshape(len(x), len(matrix))
            self._cache = ("dense", hw, xf, windows, matrix)
            return self._add_bias((xf @ matrix).reshape(len(x), self.out_channels, *out_hw))
        g = _grid(x, self.stride, canvas, pad)
        y = _ungrid(_correlate(w, g).reshape(f, f, self.out_channels, *g.shape[3:]), out_hw)
        if train:
            self._cache = ("taps", hw, g, w, pad, maps)
        return self._add_bias(y)

    def backward(self, dy, input_grad=True):
        form, hw, *cache = self._take_cache()
        self._bias_grad(dy)
        if form == "dense":
            xf, windows, matrix = cache
            index = _dense_index(self.W.shape, self.stride, self.padding, *windows)
            dyf = dy.reshape(len(dy), index.shape[1])
            gw = np.bincount(index.ravel(), (xf.T @ dyf).ravel(), self.W.size + 1)[:-1]
            self.gW = gw.astype(self.W.dtype).reshape(self.W.shape)
            if not input_grad:
                return self._no_input_grad(dy, hw)
            return (dyf @ matrix.T).reshape(len(dy), self.in_channels, *hw)
        g, w, pad, maps = cache
        f = self.upsample
        dyg = _grid(dy, (f, f), tuple(f * n for n in g.shape[4:]))
        dyg = dyg.reshape(len(w), *dyg.shape[3:])
        gw = _correlate_weight_grad(w, dyg, g)
        if maps is None:
            self.gW = gw
        else:  # each W tap collects the bank taps it was added to
            (jh, jw), gw = maps, gw.reshape(f, f, *self.W.shape[:2], *gw.shape[2:])
            c, d = np.ogrid[:f, :f]
            self.gW = np.empty_like(self.W)
            for a, b in np.ndindex(*self.kernel):
                self.gW[:, :, a, b] = gw[c, d, :, :, jh[c, a], jw[d, b]].sum(axis=(0, 1))
        if not input_grad:
            return self._no_input_grad(dy, hw)
        return _ungrid(_correlate_adjoint(w, dyg, self.stride), hw, pad)


class ConvTranspose2D(_ConvBase):
    """Strided transposed convolution; adjoint of Conv2D with the same geometry.

    output size = (in - 1) * stride - 2 * padding + kernel + output_padding,
    with the output_padding rows/columns appended at the bottom/right edge.
    """

    kind = "conv_transpose"
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

    def out_shape(self, shape):
        """(out, OH, OW), OH = (H - 1) sh - 2 ph + kh + oph, and OW likewise."""
        c, *hw = shape
        self._check_channels(c, self.in_channels)
        geometry = zip(hw, self.stride, self.padding, self.kernel, self.output_padding)
        oh, ow = ((n - 1) * s - 2 * p + k + op for n, s, p, k, op in geometry)
        if oh <= 0 or ow <= 0:
            raise LayerError(f"transposed conv output collapsed to {oh}x{ow}")
        return (self.out_channels, oh, ow)

    def window_input(self, window):
        raise LayerError("no window rule for a transposed conv")

    def forward(self, x, train):
        _check_4d(x, "conv_transpose input")
        _, oh, ow = self.out_shape(x.shape[1:])
        full_hw = tuple(n + 2 * p for n, p in zip((oh, ow), self.padding))
        grid_hw = tuple(-(-n // st) for n, st in zip(full_hw, self.stride))
        xg = _grid(x, (1, 1), grid_hw)[0, 0]
        y = _ungrid(_correlate_adjoint(self.W, xg, self.stride), (oh, ow), self.padding)
        if train:
            self._cache = (x.shape[2:], full_hw, xg)
        return self._add_bias(y)

    def backward(self, dy):
        hw, full_hw, xg = self._take_cache()
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

    kind = "maxpool"

    def __init__(self, factor: int = 2):
        self.factor = factor

    def out_shape(self, shape):
        c, h, w = shape
        if h < self.factor or w < self.factor:
            raise LayerError(f"maxpool factor {self.factor} exceeds input {h}x{w}")
        return (c, h // self.factor, w // self.factor)

    def window_input(self, window):
        raise LayerError("no window rule for a maxpool")

    def _views(self, x):
        """The f*f strided views of x, one per window position in row-major
        order, each (B, C, H // f, W // f)."""
        f, (_, oh, ow) = self.factor, self.out_shape(x.shape[1:])
        return [x[:, :, p : oh * f : f, q : ow * f : f] for p, q in np.ndindex(f, f)]

    def forward(self, x, train):
        _check_4d(x, "maxpool input")
        views = self._views(x)
        # One new array, maxed in place; with f = 1 the first and last view
        # are the same one.
        out = np.maximum(views[0], views[-1])
        for v in views[1:-1]:
            np.maximum(out, v, out=out)
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
        x_shape, masks = self._take_cache()
        dx = np.zeros(x_shape, dtype=dy.dtype)
        for v, m in zip(self._views(dx), masks):
            np.multiply(dy, m, out=v)
        return dx


class Upsample2D(Layer):
    """Nearest-neighbor upsampling by an integer factor."""

    kind = "upsample"

    def __init__(self, factor: int = 2):
        self.factor = factor

    def out_shape(self, shape):
        c, h, w = shape
        return (c, h * self.factor, w * self.factor)

    def window_input(self, window):
        raise LayerError("no window rule for an upsample; fold it into the conv after it")

    def forward(self, x, train):
        _check_4d(x, "upsample input")
        f = self.factor
        if train:
            self._cache = x.shape
        return x.repeat(f, axis=2).repeat(f, axis=3)

    def backward(self, dy):
        self._take_cache()
        f = self.factor
        rows = (reduce(np.add, [dy[:, :, p::f, q::f] for q in range(f)]) for p in range(f))
        return reduce(np.add, rows)


class BatchNorm2D(Layer):
    """Per-channel batch normalization with learned scale and shift, and with
    relu=True the ReLU after it (see the module docstring).

    Training uses batch statistics and updates the running estimates with
    momentum 0.1; inference uses the running estimates and refuses to run
    before any training batch has been seen.  The backward overwrites its dy
    argument and the cached xhat, whose buffer it returns as dx.
    """

    kind = "batchnorm"
    param_names = ("gamma", "beta")
    state_names = ("running_mean", "running_var", "batches_tracked")
    momentum = 0.1
    eps = 1e-5

    def __init__(self, channels: int, dtype=np.float32, relu: bool = False):
        self.channels = channels
        self.relu = relu
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.batches_tracked = np.zeros(1, dtype=np.int64)
        self.ggamma = np.zeros_like(self.gamma)
        self.gbeta = np.zeros_like(self.beta)

    def out_shape(self, shape):
        self._check_channels(shape[0], self.channels)
        return tuple(shape)

    def forward(self, x, train):
        _check_4d(x, "batchnorm input")
        self.out_shape(x.shape[1:])
        flat = x.reshape(*x.shape[:2], -1)
        if train:
            n = flat.shape[0] * flat.shape[2]
            mean = np.einsum("bcl->c", flat) / n
            xhat = flat - mean[:, None]
            var = np.einsum("bcl,bcl->c", xhat, xhat) / n
            m, rm, rv = self.momentum, self.running_mean, self.running_var
            self.running_mean = ((1 - m) * rm + m * mean).astype(rm.dtype)
            self.running_var = ((1 - m) * rv + m * var).astype(rv.dtype)
            self.batches_tracked += 1
            inv_std = (1.0 / np.sqrt(var + self.eps))[:, None]
            xhat *= inv_std
            out = xhat * self.gamma[:, None]
            out += self.beta[:, None]
        else:
            if self.batches_tracked[0] == 0:
                raise LayerError("batchnorm inference before any training batch")
            scale = self.gamma / np.sqrt(self.running_var + self.eps)
            out = flat * scale[:, None]
            out += (self.beta - self.running_mean * scale)[:, None]
        mask = None
        if self.relu:
            if train:
                mask = out > 0
            np.maximum(out, 0, out=out)
        if train:
            self._cache = (xhat, inv_std, mask)
        return out.reshape(x.shape).astype(x.dtype, copy=False)

    def backward(self, dy):
        xhat, inv_std, mask = self._take_cache()
        flat = dy.reshape(xhat.shape)
        if mask is not None:
            np.multiply(flat, mask, out=flat)
        sum_dy = np.einsum("bcl->c", flat)
        sum_dy_xhat = np.einsum("bcl,bcl->c", flat, xhat)
        self.ggamma = sum_dy_xhat.astype(self.gamma.dtype, copy=False)
        self.gbeta = sum_dy.astype(self.beta.dtype, copy=False)
        # dx = gamma * inv_std * (dy - (sum_dy + xhat * sum_dy_xhat) / n)
        scale = self.gamma[:, None] * inv_std
        k = scale / (xhat.shape[0] * xhat.shape[2])
        xhat *= -k * sum_dy_xhat[:, None]
        xhat -= k * sum_dy[:, None]
        flat *= scale
        xhat += flat
        return xhat.reshape(dy.shape)


class ReLU(Layer):
    kind = "relu"

    def forward(self, x, train):
        if train:
            self._cache = x > 0
        return np.maximum(x, 0)

    def backward(self, dy):
        return dy * self._take_cache()


class Sigmoid(Layer):
    kind = "sigmoid"

    def forward(self, x, train):
        out = expit(x).astype(x.dtype, copy=False)
        if train:
            self._cache = out
        return out

    def backward(self, dy):
        out = self._take_cache()
        return dy * out * (1.0 - out)
