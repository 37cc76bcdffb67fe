from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anomvox.nn import (
    AdamState,
    BatchNorm2D,
    Conv2D,
    ConvTranspose2D,
    LayerError,
    MaxPool2D,
    NonFiniteGradientError,
    ReLU,
    Sigmoid,
    Upsample2D,
    adam_step,
)
from anomvox.models import AEModel, SAEModel
from anomvox.nn import layers

RNG = np.random.default_rng(1234)


def rand(shape, dtype=np.float64):
    return RNG.normal(size=shape).astype(dtype)


def make_conv(cin=2, cout=3, k=(3, 3), s=(1, 1), p=(0, 0), bias=True):
    conv = Conv2D(cin, cout, k, s, p, bias, np.float64)
    conv.W = rand(conv.W.shape)
    conv.b = rand(conv.b.shape)
    return conv


def naive_conv(x, W, b, stride, padding):
    """Cross-correlation straight from its definition, one output at a time."""
    (sh, sw), (ph, pw) = stride, padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    n, _, hp, wp = xp.shape
    cout, _, kh, kw = W.shape
    y = np.zeros((n, cout, (hp - kh) // sh + 1, (wp - kw) // sw + 1))
    for bi, o, r, c in np.ndindex(y.shape):
        window = xp[bi, :, r * sh : r * sh + kh, c * sw : c * sw + kw]
        y[bi, o, r, c] = (W[o] * window).sum() + b[o]
    return y


def naive_conv_transpose(x, W, b, stride, padding, output_padding):
    """Transposed convolution straight from its definition: every input pixel
    adds its kernel-weighted copy at stride spacing, then the padding is cut."""
    (sh, sw), (ph, pw), (oph, opw) = stride, padding, output_padding
    n, _, ih, iw = x.shape
    _, cout, kh, kw = W.shape
    full = np.zeros((n, cout, (ih - 1) * sh + kh + oph, (iw - 1) * sw + kw + opw))
    for bi, ci, r, c in np.ndindex(x.shape):
        full[bi, :, r * sh : r * sh + kh, c * sw : c * sw + kw] += x[bi, ci, r, c] * W[ci]
    out = full[:, :, ph : full.shape[2] - ph, pw : full.shape[3] - pw]
    return out + b[None, :, None, None]


def correlate_loop(w, xp, stride):
    """Reference strided cross-correlation: one tensordot per kernel offset
    over a strided window view of the padded input."""
    kh, kw = w.shape[2:]
    sh, sw = stride
    oh = (xp.shape[2] - kh) // sh + 1
    ow = (xp.shape[3] - kw) // sw + 1
    acc = np.zeros((w.shape[0], xp.shape[0], oh, ow), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            sl = xp[:, :, i : i + oh * sh : sh, j : j + ow * sw : sw]
            acc += np.tensordot(w[:, :, i, j], sl, axes=([1], [1]))
    return acc.transpose(1, 0, 2, 3)


def correlate_adjoint_loop(w, dy, full_hw, stride):
    """Reference adjoint of correlate_loop in its input: each kernel offset
    scatters its tensordot onto a strided window of the padded grid."""
    kh, kw = w.shape[2:]
    sh, sw = stride
    B, _, oh, ow = dy.shape
    acc = np.zeros((w.shape[1], B, *full_hw), dtype=dy.dtype)
    for i in range(kh):
        for j in range(kw):
            contrib = np.tensordot(w[:, :, i, j], dy, axes=([0], [1]))
            acc[:, :, i : i + oh * sh : sh, j : j + ow * sw : sw] += contrib
    return acc.transpose(1, 0, 2, 3)


def correlate_weight_grad_loop(w, dy, xp, stride):
    """Reference kernel gradient of correlate_loop, one tensordot per offset."""
    kh, kw = w.shape[2:]
    sh, sw = stride
    oh, ow = dy.shape[2:]
    g = np.empty_like(w)
    for i in range(kh):
        for j in range(kw):
            sl = xp[:, :, i : i + oh * sh : sh, j : j + ow * sw : sw]
            g[:, :, i, j] = np.tensordot(dy, sl, axes=([0, 2, 3], [0, 2, 3]))
    return g


# Channel counts on both sides of the kernels' thin rule: below layers.THIN
# the taps (or, for a thin output from a wide input, the weights) are
# stacked into one product, from it on each tap runs alone.
CHANNELS = st.sampled_from((1, 2, 3, layers.THIN - 1, layers.THIN, layers.THIN + 1))


class TestCorrelationKernels:
    """The phase-grid kernels against the per-offset reference loops."""

    @settings(max_examples=80, deadline=None)
    @given(
        stride=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        kernel=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        extra=st.tuples(st.integers(0, 7), st.integers(0, 7)),
        bko=st.tuples(st.integers(1, 3), CHANNELS, CHANNELS),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(stride=(1, 1), kernel=(1, 1), extra=(0, 0), bko=(1, 1, 1), seed=0)
    @example(stride=(3, 2), kernel=(2, 4), extra=(2, 1), bko=(1, 1, 1), seed=1)
    @example(stride=(3, 3), kernel=(4, 1), extra=(3, 7), bko=(2, 3, 1), seed=2)
    @example(stride=(1, 1), kernel=(3, 3), extra=(4, 5), bko=(2, 2, 16), seed=3)
    @example(stride=(1, 1), kernel=(2, 2), extra=(5, 4), bko=(2, 16, 2), seed=4)
    @example(stride=(1, 1), kernel=(3, 3), extra=(3, 3), bko=(2, 16, 16), seed=5)
    @example(stride=(2, 2), kernel=(3, 3), extra=(4, 5), bko=(2, 2, 16), seed=6)
    @example(stride=(2, 2), kernel=(3, 3), extra=(5, 4), bko=(2, 16, 2), seed=7)
    @example(stride=(2, 2), kernel=(3, 3), extra=(3, 3), bko=(2, 16, 16), seed=8)
    def test_kernels_match_reference_loops(self, stride, kernel, extra, bko, seed):
        # Padded sizes kernel + extra cover every remainder modulo the stride.
        rng = np.random.default_rng(seed)
        (kh, kw), (B, K, O) = kernel, bko
        hp, wp = kh + extra[0], kw + extra[1]
        w = rng.normal(size=(O, K, kh, kw))
        xp = rng.normal(size=(B, K, hp, wp))
        g = layers._grid(xp, stride, (hp, wp))
        y_ref = correlate_loop(w, xp, stride)
        y = layers._ungrid(layers._correlate(w, g)[None, None], y_ref.shape[2:])
        np.testing.assert_allclose(y, y_ref, rtol=0, atol=1e-10)
        dy = rng.normal(size=y_ref.shape)
        dyg = layers._grid(dy, (1, 1), g.shape[4:])[0, 0]
        dxp = layers._ungrid(layers._correlate_adjoint(w, dyg, stride), (hp, wp))
        np.testing.assert_allclose(
            dxp, correlate_adjoint_loop(w, dy, (hp, wp), stride), rtol=0, atol=1e-10
        )
        np.testing.assert_allclose(
            layers._correlate_weight_grad(w, dyg, g),
            correlate_weight_grad_loop(w, dy, xp, stride),
            rtol=0,
            atol=1e-10,
        )


class TestActivations:
    def test_relu_values(self):
        x = np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 3)
        out = ReLU().forward(x, train=False)
        assert np.array_equal(out.reshape(-1), [0.0, 0.0, 2.0])

    def test_sigmoid_at_zero(self):
        x = np.zeros((1, 1, 1, 1))
        assert Sigmoid().forward(x, train=False)[0, 0, 0, 0] == 0.5

    def test_sigmoid_range(self):
        out = Sigmoid().forward(rand((2, 3, 4, 5)) * 50, train=False)
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestConv:
    def test_identity_kernel(self):
        conv = Conv2D(1, 1, (1, 1), (1, 1), (0, 0), True, np.float64)
        conv.W = np.ones((1, 1, 1, 1))
        conv.b = np.zeros(1)
        x = rand((2, 1, 5, 7))
        assert np.allclose(conv.forward(x, train=False), x)

    def test_linearity_without_bias(self):
        conv = make_conv(bias=False)
        x = rand((2, 2, 6, 6))
        y = rand((2, 2, 6, 6))
        lhs = conv.forward(2.5 * x - 1.5 * y, train=False)
        rhs = 2.5 * conv.forward(x, train=False) - 1.5 * conv.forward(y, train=False)
        assert np.allclose(lhs, rhs, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_linearity_property(self, seed):
        rng = np.random.default_rng(seed)
        conv = Conv2D(2, 2, (3, 3), (2, 2), (1, 1), False, np.float64)
        conv.W = rng.normal(size=conv.W.shape)
        a, b = rng.normal(size=2)
        x = rng.normal(size=(1, 2, 5, 6))
        y = rng.normal(size=(1, 2, 5, 6))
        lhs = conv.forward(a * x + b * y, train=False)
        rhs = a * conv.forward(x, train=False) + b * conv.forward(y, train=False)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_adjoint_identity(self):
        # <Conv x, y> == <x, Conv^T y> for the bias-free linear map.
        conv = make_conv(cin=3, cout=4, s=(2, 2), p=(1, 1), bias=False)
        x = rand((2, 3, 7, 9))
        out = conv.forward(x, train=True)
        dy = rand(out.shape)
        dx = conv.backward(dy)
        assert np.isclose((out * dy).sum(), (x * dx).sum(), rtol=1e-10)

    @pytest.mark.parametrize(
        "k, s, p", [((3, 3), (2, 2), (1, 1)), ((2, 3), (1, 2), (0, 1)), ((3, 3), (1, 1), (2, 2))]
    )
    def test_matches_direct_definition(self, k, s, p):
        conv = make_conv(cin=3, cout=4, k=k, s=s, p=p)
        x = rand((2, 3, 7, 9))
        ref = naive_conv(x, conv.W, conv.b, s, p)
        assert np.allclose(conv.forward(x, train=False), ref, rtol=0, atol=1e-10)

    @pytest.mark.parametrize(
        "k, s, p", [((3, 3), (2, 2), (1, 1)), ((2, 3), (1, 2), (0, 1)), ((3, 3), (1, 1), (2, 2))]
    )
    def test_weight_grad_matches_direct_definition(self, k, s, p):
        # gW[o, k, i, j] = sum over batch and output positions of
        # dy[b, o, r, c] * xp[b, k, r*sh + i, c*sw + j].
        conv = make_conv(cin=3, cout=4, k=k, s=s, p=p)
        x = rand((2, 3, 7, 9))
        dy = rand(conv.forward(x, train=True).shape)
        conv.backward(dy)
        (sh, sw), (ph, pw) = s, p
        xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        ref = np.zeros_like(conv.W)
        for bi, o, r, c in np.ndindex(dy.shape):
            ref[o] += dy[bi, o, r, c] * xp[bi, :, r * sh : r * sh + k[0], c * sw : c * sw + k[1]]
        assert np.allclose(conv.gW, ref, rtol=0, atol=1e-10)

    def test_channel_mismatch(self):
        with pytest.raises(LayerError):
            make_conv(cin=2).forward(rand((1, 3, 5, 5)), train=False)

    def test_input_smaller_than_kernel(self):
        # A valid 3x3 conv has no output position on a 2x2 input.
        with pytest.raises(LayerError, match="smaller than the kernel"):
            make_conv().forward(rand((1, 2, 2, 2)), train=False)
        # Padding that makes room for the kernel is fine.
        assert make_conv(p=(1, 1)).forward(rand((1, 2, 2, 2)), train=False).shape == (1, 3, 2, 2)

    def test_backward_without_forward(self):
        with pytest.raises(LayerError, match="cache"):
            make_conv().backward(rand((1, 3, 3, 3)))

    @pytest.mark.parametrize(
        "cin, cout, k, s, p, f",
        [
            (2, 3, (3, 3), (1, 1), (0, 0), 1),
            (16, 16, (3, 3), (1, 1), (1, 1), 1),
            (16, 2, (2, 2), (1, 1), (1, 1), 1),
            (2, 3, (3, 3), (2, 2), (1, 1), 1),
            (2, 3, (3, 3), (1, 1), (2, 2), 2),
        ],
        ids=["thin", "wide", "thin-output", "strided", "upsampling"],
    )
    def test_empty_batch(self, cin, cout, k, s, p, f):
        conv = Conv2D(cin, cout, k, s, p, True, np.float64, upsample=f)
        x = np.zeros((0, cin, 5, 6))
        y = conv.forward(x, train=True)
        assert y.shape == (0, *conv.forward(np.zeros((1, cin, 5, 6)), train=False).shape[1:])
        assert conv.backward(np.ones_like(y)).shape == x.shape
        assert not conv.gW.any() and not conv.gb.any()

    def test_backward_without_input_grad(self):
        # The parameter gradients are the full backward's; the input gradient
        # is a NaN stand-in of the input's shape.
        rng = np.random.default_rng(5)
        conv = Conv2D(2, 16, (3, 3), (2, 2), (1, 1), True, np.float64)
        conv.W = rng.normal(size=conv.W.shape)
        x = rng.normal(size=(2, 2, 7, 9))
        dy = rng.normal(size=conv.forward(x, train=True).shape)
        conv.backward(dy)
        full = conv.grads()
        conv.forward(x, train=True)
        stand_in = conv.backward(dy, False)
        assert all(np.array_equal(g, full[k]) for k, g in conv.grads().items())
        assert stand_in.shape == x.shape and np.isnan(stand_in).all()


class TestDenseConv:
    """A training step runs a conv whose matrix has at most layers.DENSE
    entries as that matrix; every other forward keeps the tap form."""

    @pytest.mark.parametrize(
        "cin, cout, k, s, p, hw, B",
        [
            (3, 4, (3, 3), (1, 1), (0, 0), (7, 9), 2),
            (3, 4, (3, 3), (2, 2), (1, 1), (7, 9), 2),
            (2, 3, (2, 3), (1, 2), (0, 1), (5, 6), 3),
            (16, 16, (3, 3), (1, 1), (2, 2), (2, 2), 2),
            (16, 16, (3, 3), (1, 1), (0, 0), (6, 6), 2),
            (16, 2, (2, 2), (1, 1), (1, 1), (5, 6), 0),
            (16, 16, (3, 3), (1, 1), (2, 2), (6, 6), 1),
            (16, 16, (3, 3), (1, 1), (0, 0), (10, 10), 1),
        ],
        ids=["valid", "strided", "uneven", "full-2x2", "valid-6x6", "empty", "full-6x6", "valid-10x10"],
    )
    def test_training_step_matches_reference(self, cin, cout, k, s, p, hw, B):
        conv = make_conv(cin=cin, cout=cout, k=k, s=s, p=p)
        x = rand((B, cin, *hw))
        y = conv.forward(x, train=True)
        dense = cin * np.prod(hw) * cout * np.prod(y.shape[2:]) <= layers.DENSE
        assert conv._cache[0] == ("dense" if dense else "taps")
        np.testing.assert_allclose(y, naive_conv(x, conv.W, conv.b, s, p), rtol=0, atol=1e-10)
        dy = rand(y.shape)
        dx = conv.backward(dy)
        hp, wp = (n + 2 * q for n, q in zip(hw, p))
        dxp = correlate_adjoint_loop(conv.W, dy, (hp, wp), s)
        np.testing.assert_allclose(dx, dxp[:, :, p[0] : p[0] + hw[0], p[1] : p[1] + hw[1]], rtol=0, atol=1e-10)
        xp = np.pad(x, ((0, 0), (0, 0), (p[0], p[0]), (p[1], p[1])))
        np.testing.assert_allclose(conv.gW, correlate_weight_grad_loop(conv.W, dy, xp, s), rtol=0, atol=1e-10)
        np.testing.assert_allclose(conv.gb, dy.sum(axis=(0, 2, 3)), rtol=0, atol=1e-10)

    def test_keeps_float32(self):
        conv = Conv2D(16, 16, (3, 3), (1, 1), (0, 0))
        x = np.ones((2, 16, 6, 6), np.float32)
        y = conv.forward(x, train=True)
        assert conv._cache[0] == "dense"
        dx = conv.backward(np.ones_like(y))
        assert {a.dtype for a in (y, dx, conv.gW, conv.gb)} == {np.dtype(np.float32)}

    def test_inference_keeps_the_tap_form(self, monkeypatch):
        conv = make_conv(cin=16, cout=16)
        x = rand((4, 16, 6, 6))
        conv.forward(x, train=True)
        assert conv._cache[0] == "dense"
        y = conv.forward(x, train=False)
        monkeypatch.setattr(layers, "DENSE", 0)
        assert np.array_equal(y, conv.forward(x, train=True))
        assert conv._cache[0] == "taps"

    @staticmethod
    def conv_forms(*stacks):
        return [layer._cache[0] for stack in stacks for layer in stack.layers if isinstance(layer, Conv2D)]

    def test_sae_middle_layers_train_dense(self):
        model = SAEModel()
        x = np.zeros((2, *model.input_shape), np.float32)
        model.decoder.forward(model.encoder.forward(x, True), True)
        # enc1, enc2, enc3; dec1, dec2, the upsampling dec3, dec4.
        assert self.conv_forms(model.encoder, model.decoder) == [
            "taps", "dense", "dense", "dense", "dense", "taps", "taps"
        ]

    @pytest.mark.parametrize("hw", [(56, 48), (145, 121)])
    def test_ae_layers_train_in_tap_form(self, hw):
        model = AEModel(hw)
        model.forward(np.zeros((1, *model.input_shape), np.float32), True)
        assert self.conv_forms(model.encoder) == ["taps"] * 5


class TestConvTranspose:
    @pytest.mark.parametrize(
        "k, s, p, op",
        [
            ((3, 3), (2, 2), (1, 1), (1, 0)),
            ((3, 3), (2, 2), (1, 1), (0, 1)),
            ((2, 3), (1, 2), (0, 1), (0, 0)),
        ],
    )
    def test_matches_direct_definition(self, k, s, p, op):
        tconv = ConvTranspose2D(2, 3, k, s, p, op, True, np.float64)
        tconv.W = rand(tconv.W.shape)
        tconv.b = rand(tconv.b.shape)
        x = rand((2, 2, 5, 6))
        ref = naive_conv_transpose(x, tconv.W, tconv.b, s, p, op)
        assert np.allclose(tconv.forward(x, train=False), ref, rtol=0, atol=1e-10)

    def test_adjoint_of_conv(self):
        # Forward of the transposed conv equals the input-gradient of the
        # matching conv with shared (identically shaped) weights.
        c1, c2 = 3, 2
        k, s, p = (3, 3), (2, 2), (1, 1)
        conv = Conv2D(c1, c2, k, s, p, False, np.float64)
        conv.W = rand(conv.W.shape)  # (c2, c1, kh, kw)
        tconv = ConvTranspose2D(c2, c1, k, s, p, output_padding=(0, 0), bias=False, dtype=np.float64)
        tconv.W = conv.W.copy()
        x_img = rand((2, c1, 9, 11))
        y = conv.forward(x_img, train=True)
        dy = rand(y.shape)
        dx = conv.backward(dy)
        out = tconv.forward(dy, train=False)
        assert out.shape == x_img.shape
        assert np.allclose(out, dx, atol=1e-10)

    @pytest.mark.parametrize(
        "k, s, p, op",
        [
            ((3, 3), (2, 2), (1, 1), (1, 0)),
            ((3, 3), (2, 2), (1, 1), (0, 1)),
            ((2, 3), (1, 2), (0, 1), (0, 0)),
        ],
    )
    def test_weight_grad_matches_direct_definition(self, k, s, p, op):
        # Every input pixel adds x[b, ci, r, c] * W[ci] at stride spacing onto
        # the full output, so gW[ci] sums x[b, ci, r, c] times the window of
        # the output gradient, placed on the full grid, that W[ci] landed on.
        tconv = ConvTranspose2D(2, 3, k, s, p, op, True, np.float64)
        tconv.W = rand(tconv.W.shape)
        x = rand((2, 2, 5, 6))
        dy = rand(tconv.forward(x, train=True).shape)
        tconv.backward(dy)
        (sh, sw), (ph, pw) = s, p
        full = np.zeros((2, 3, (5 - 1) * sh + k[0] + op[0], (6 - 1) * sw + k[1] + op[1]))
        full[:, :, ph : ph + dy.shape[2], pw : pw + dy.shape[3]] = dy
        ref = np.zeros_like(tconv.W)
        for bi, ci, r, c in np.ndindex(x.shape):
            ref[ci] += x[bi, ci, r, c] * full[bi, :, r * sh : r * sh + k[0], c * sw : c * sw + k[1]]
        assert np.allclose(tconv.gW, ref, rtol=0, atol=1e-10)

    def test_output_padding_geometry(self):
        tconv = ConvTranspose2D(1, 1, (3, 3), (2, 2), (1, 1), output_padding=(1, 0), dtype=np.float64)
        tconv.W = rand(tconv.W.shape)
        out = tconv.forward(rand((1, 1, 5, 5)), train=False)
        assert out.shape == (1, 1, 10, 9)

    def test_output_padding_below_stride(self):
        with pytest.raises(LayerError, match="output_padding"):
            ConvTranspose2D(1, 1, (3, 3), (2, 2), (1, 1), output_padding=(0, 2))

    @pytest.mark.parametrize("cin, cout", [(2, 3), (16, 2), (16, 16)], ids=["thin", "thin-output", "wide"])
    def test_empty_batch(self, cin, cout):
        tconv = ConvTranspose2D(cin, cout, (3, 3), (2, 2), (1, 1), (1, 0), True, np.float64)
        y = tconv.forward(np.zeros((0, cin, 5, 5)), train=True)
        assert y.shape == (0, cout, 10, 9)
        assert tconv.backward(np.ones_like(y)).shape == (0, cin, 5, 5)
        assert not tconv.gW.any() and not tconv.gb.any()

    def test_adjoint_identity(self):
        tconv = ConvTranspose2D(2, 3, (3, 3), (2, 2), (1, 1), (1, 0), False, np.float64)
        tconv.W = rand(tconv.W.shape)
        x = rand((2, 2, 5, 6))
        out = tconv.forward(x, train=True)
        dy = rand(out.shape)
        dx = tconv.backward(dy)
        assert np.isclose((out * dy).sum(), (x * dx).sum(), rtol=1e-10)


class TestMaxPool:
    def test_values_and_floor(self):
        x = np.arange(2 * 1 * 5 * 5, dtype=np.float64).reshape(2, 1, 5, 5)
        out = MaxPool2D(2).forward(x, train=False)
        assert out.shape == (2, 1, 2, 2)
        assert out[0, 0, 0, 0] == x[0, 0, 1, 1]

    def test_gradient_routes_to_argmax_and_conserves(self):
        pool = MaxPool2D(2)
        x = rand((3, 2, 7, 6))
        out = pool.forward(x, train=True)
        dy = rand(out.shape)
        dx = pool.backward(dy)
        assert np.isclose(dx.sum(), dy.sum())
        # Gradient only lands where the input equals the pooled maximum.
        nz = np.argwhere(dx != 0)
        for b, c, i, j in nz:
            assert x[b, c, i, j] == out[b, c, i // 2, j // 2]


    def test_ties_route_to_first_position(self):
        # Every window of equal values sends its whole gradient to its first
        # position in row-major order; the dropped odd trailing row and
        # column (5x7 input) get none.
        pool = MaxPool2D(2)
        x = np.ones((2, 3, 5, 7))
        out = pool.forward(x, train=True)
        dy = rand(out.shape)
        dx = pool.backward(dy)
        expected = np.zeros_like(x)
        expected[:, :, 0:4:2, 0:6:2] = dy
        assert np.array_equal(dx, expected)
        # A tie between the second and fourth positions goes to the second.
        x = np.array([[0.0, 3.0], [1.0, 3.0]]).reshape(1, 1, 2, 2)
        pool.forward(x, train=True)
        dx = pool.backward(np.array([[[[2.0]]]]))
        assert np.array_equal(dx[0, 0], [[0.0, 2.0], [0.0, 0.0]])


class TestUpsample:
    def test_nearest_neighbor(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        out = Upsample2D(2).forward(x, train=False)
        assert np.array_equal(out[0, 0], np.array([
            [1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4],
        ], dtype=np.float64))

    def test_backward_sums_blocks(self):
        up = Upsample2D(2)
        x = rand((2, 3, 4, 5))
        up.forward(x, train=True)
        dy = np.ones((2, 3, 8, 10))
        dx = up.backward(dy)
        assert np.allclose(dx, 4.0)


class TestUpsamplingConv:
    """Conv2D(upsample=f) folds a nearest upsample into its kernel; it must
    compute the conv of the upsampled input, and its gradients, by definition."""

    @pytest.mark.parametrize("f", [2, 3])
    @pytest.mark.parametrize("padding", ["valid", "same", "full", "wide"])
    @pytest.mark.parametrize("hw", [(3, 3), (4, 4), (3, 4)], ids=["odd", "even", "mixed"])
    def test_matches_upsample_then_conv(self, f, padding, hw):
        k = (3, 3)
        p = {"valid": (0, 0), "same": (1, 1), "full": (2, 2), "wide": (4, 3)}[padding]
        fused = Conv2D(3, 4, k, (1, 1), p, True, np.float64, upsample=f)
        conv = make_conv(cin=3, cout=4, k=k, p=p)
        fused.W, fused.b = conv.W, conv.b
        up = Upsample2D(f)
        x = rand((2, 3, *hw))
        u = x.repeat(f, axis=2).repeat(f, axis=3)
        y = fused.forward(x, train=True)
        np.testing.assert_allclose(y, naive_conv(u, conv.W, conv.b, (1, 1), p), rtol=0, atol=1e-10)
        np.testing.assert_allclose(conv.forward(up.forward(x, True), True), y, rtol=0, atol=1e-10)
        dy = rand(y.shape)
        np.testing.assert_allclose(fused.backward(dy), up.backward(conv.backward(dy)), rtol=0, atol=1e-10)
        # gW[o, c, i, j] = sum over batch and outputs of dy[b, o, r, s] * up[b, c, r + i, s + j].
        up_p = np.pad(u, ((0, 0), (0, 0), (p[0], p[0]), (p[1], p[1])))
        ref_gw = np.zeros_like(conv.W)
        for bi, o, r, c in np.ndindex(dy.shape):
            ref_gw[o] += dy[bi, o, r, c] * up_p[bi, :, r : r + k[0], c : c + k[1]]
        np.testing.assert_allclose(fused.gW, ref_gw, rtol=0, atol=1e-10)
        np.testing.assert_allclose(fused.gb, dy.sum(axis=(0, 2, 3)), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("k, p", [((2, 3), (1, 0)), ((1, 4), (0, 3))])
    def test_uneven_kernels(self, k, p):
        fused = Conv2D(2, 3, k, (1, 1), p, False, np.float64, upsample=2)
        fused.W = rand(fused.W.shape)
        x = rand((2, 2, 3, 5))
        u = x.repeat(2, axis=2).repeat(2, axis=3)
        ref = naive_conv(u, fused.W, np.zeros(3), (1, 1), p)
        np.testing.assert_allclose(fused.forward(x, train=False), ref, rtol=0, atol=1e-10)

    def test_full_padding_is_a_transposed_conv(self):
        # Resize-convolution: upsample x2 then a 3x3 "full" conv is the
        # stride-2 transposed conv of K[t] = W[2 - t] + W[3 - t] per axis.
        fused = Conv2D(3, 2, (3, 3), (1, 1), (2, 2), False, np.float64, upsample=2)
        fused.W = rand(fused.W.shape)
        wp = np.pad(fused.W, ((0, 0), (0, 0), (1, 1), (1, 1)))  # W[-1] = W[3] = 0
        k1 = wp[:, :, ::-1][:, :, :4] + wp[:, :, ::-1][:, :, 1:]  # K[t] = W[3 - t] + W[2 - t]
        k = k1[:, :, :, ::-1][:, :, :, :4] + k1[:, :, :, ::-1][:, :, :, 1:]
        tconv = ConvTranspose2D(3, 2, (4, 4), (2, 2), (0, 0), bias=False, dtype=np.float64)
        tconv.W = k.transpose(1, 0, 2, 3)
        x = rand((2, 3, 4, 5))
        np.testing.assert_allclose(fused.forward(x, train=False), tconv.forward(x, train=False), rtol=0, atol=1e-10)

    def test_adjoint_identity(self):
        # <F x, dy> == <x, F^T dy> for the bias-free linear map.
        fused = Conv2D(3, 4, (3, 3), (1, 1), (2, 2), False, np.float64, upsample=2)
        fused.W = rand(fused.W.shape)
        x = rand((2, 3, 5, 4))
        out = fused.forward(x, train=True)
        dy = rand(out.shape)
        dx = fused.backward(dy)
        assert np.isclose((out * dy).sum(), (x * dx).sum(), rtol=1e-10)

    def test_needs_stride_one(self):
        with pytest.raises(LayerError, match="upsampling conv"):
            Conv2D(1, 1, (3, 3), (2, 2), (1, 1), upsample=2)


class TestBatchNorm:
    def test_train_normalizes_batch(self):
        bn = BatchNorm2D(3, dtype=np.float64)
        x = rand((8, 3, 4, 4)) * 5 + 2
        out = bn.forward(x, train=True)
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        assert np.allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_infer_before_train_rejected(self):
        bn = BatchNorm2D(2, dtype=np.float64)
        with pytest.raises(LayerError, match="inference before"):
            bn.forward(rand((2, 2, 3, 3)), train=False)

    def test_infer_uses_running_stats(self):
        bn = BatchNorm2D(2, dtype=np.float64)
        x = rand((16, 2, 5, 5))
        for _ in range(200):
            bn.forward(x, train=True)
        out = bn.forward(x, train=False)
        # After convergence of the running stats the two modes agree.
        assert np.allclose(out, bn.forward(x, train=True), atol=1e-6)


def relative(got, ref):
    """Largest absolute difference over the reference's largest magnitude."""
    return float(np.abs(got - ref).max() / np.abs(ref).max())


def textbook_batchnorm_relu(x, gamma, beta, dy):
    """One training step and one inference of batch normalization (Ioffe and
    Szegedy) and a ReLU as separate full-array steps, in x's dtype, from
    fresh running statistics (mean 0, variance 1)."""
    axes, c = (0, 2, 3), (slice(None), None, None)
    n = x.size // x.shape[1]
    mean, var = x.mean(axis=axes), x.var(axis=axes)
    inv_std = 1 / np.sqrt(var + BatchNorm2D.eps)
    xhat = (x - mean[c]) * inv_std[c]
    pre = gamma[c] * xhat + beta[c]
    dpre = dy * (pre > 0)
    ggamma, gbeta = (dpre * xhat).sum(axis=axes), dpre.sum(axis=axes)
    running_mean, running_var = 0.1 * mean, 0.9 + 0.1 * var
    infer = gamma[c] * (x - running_mean[c]) / np.sqrt(running_var[c] + BatchNorm2D.eps) + beta[c]
    return {
        "out": np.maximum(pre, 0),
        "dx": (gamma * inv_std / n)[c] * (n * dpre - gbeta[c] - xhat * ggamma[c]),
        "ggamma": ggamma,
        "gbeta": gbeta,
        "running_mean": running_mean,
        "running_var": running_var,
        "infer": np.maximum(infer, 0),
    }


class TestBatchNormReLU:
    """BatchNorm2D(relu=True) computes what BatchNorm2D followed by ReLU
    does, and what the textbook steps do, in another order: equal to
    rounding, in training and inference, for the output, dx, ggamma, gbeta
    and the running statistics.  Each backward overwrites its dy, so each
    gets a copy."""

    @staticmethod
    def step(layers, x, dy):
        """One training step, then one inference, through layers in order."""
        out = reduce(lambda y, layer: layer.forward(y, True), layers, x)
        dx = reduce(lambda g, layer: layer.backward(g), reversed(layers), dy.copy())
        infer = reduce(lambda y, layer: layer.forward(y, False), layers, x)
        bn = layers[0]
        return {"out": out, "dx": dx, "ggamma": bn.ggamma, "gbeta": bn.gbeta,
                "running_mean": bn.running_mean, "running_var": bn.running_var, "infer": infer}

    def differences(self, x, dy, rng):
        gamma = rng.normal(1.0, 0.5, x.shape[1]).astype(x.dtype)
        beta = rng.normal(0.0, 0.5, x.shape[1]).astype(x.dtype)
        fused, plain = BatchNorm2D(x.shape[1], x.dtype, relu=True), BatchNorm2D(x.shape[1], x.dtype)
        for layer in (fused, plain):
            layer.set_params({"gamma": gamma, "beta": beta})
        got = self.step([fused], x, dy)
        refs = [self.step([plain, ReLU()], x, dy), textbook_batchnorm_relu(x, gamma, beta, dy)]
        return {name: max(relative(got[name], ref[name]) for ref in refs) for name in got}

    def test_matches_batchnorm_then_relu_float64(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0.3, 2.0, (6, 4, 5, 7))
        diffs = self.differences(x, rng.normal(size=x.shape), rng)
        assert max(diffs.values()) <= 1e-12, diffs

    def test_matches_batchnorm_then_relu_float32_at_the_ae_shapes(self):
        # The nine BatchNorm+ReLU layers of the AE at the paper's 145x121
        # slices, batch 40.  The einsum reductions sum in SIMD lanes, the
        # textbook's in pairs; ggamma differs most, by up to 8.4e-7.
        rng = np.random.default_rng(12)
        model = AEModel((145, 121))
        shapes = [
            shape
            for seq, in_shape in ((model.encoder, (2, 145, 121)), (model.decoder, model.bottleneck_shape))
            for layer, shape in zip(seq.layers, seq.shapes(in_shape))
            if isinstance(layer, BatchNorm2D)
        ]
        assert len(shapes) == 9
        for shape in shapes:
            x = rng.normal(0.3, 2.0, (40, *shape)).astype(np.float32)
            diffs = self.differences(x, rng.normal(size=x.shape).astype(np.float32), rng)
            assert max(diffs.values()) <= 1e-6, (shape, diffs)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = {"w": rand((3, 3))}
        before = p["w"].copy()
        state = AdamState(learning_rate=0.1)
        adam_step(p, {"w": np.zeros((3, 3))}, state)
        assert np.array_equal(p["w"], before)
        assert state.step == 1

    def test_first_step_is_signed_lr(self):
        # With constant gradient g, the first update is -lr * |g|/(|g| + eps).
        g = np.array([[0.3, -0.7], [2.0, -0.01]])
        p = {"w": np.zeros((2, 2))}
        state = AdamState(learning_rate=1e-3)
        adam_step(p, {"w": g.copy()}, state)
        expected = -1e-3 * np.abs(g) / (np.abs(g) + 1e-8) * np.sign(g)
        assert np.allclose(p["w"], expected, rtol=1e-6)
        assert np.allclose(np.abs(p["w"]), 1e-3, rtol=1e-5)

    def test_identical_tensors_identical_updates(self):
        g = rand((4, 4))
        p = {"a": np.ones((4, 4)), "b": np.ones((4, 4))}
        adam_step(p, {"a": g.copy(), "b": g.copy()}, AdamState(learning_rate=0.01))
        assert np.array_equal(p["a"], p["b"])

    def test_nonfinite_gradient_rejected(self):
        p = {"w": np.zeros(2)}
        g = np.array([1.0, np.nan])
        with pytest.raises(NonFiniteGradientError):
            adam_step(p, {"w": g}, AdamState())
        assert np.array_equal(p["w"], np.zeros(2))
