import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomvox.models import AEModel, SAEModel
from anomvox.nn import (
    BatchNorm2D,
    Conv2D,
    ConvTranspose2D,
    LayerError,
    MaxPool2D,
    ReLU,
    Sequential,
    Sigmoid,
    Upsample2D,
)


def conv(cin, cout, k=3, s=1, p=(0, 0), **kw):
    return Conv2D(cin, cout, (k, k), (s, s), p, **kw)


class TestOutShape:
    def test_strided_conv_formula(self):
        layer = conv(2, 16, k=3, s=2, p=(1, 1))
        assert layer.out_shape((2, 121, 145)) == (16, 61, 73)

    def test_published_encoder_bottleneck(self):
        # Five stacked stride-2 convolutions take 121x145 to 4x5.
        shape = (2, 121, 145)
        channels = [2, 16, 32, 64, 128, 256]
        for cin, cout in zip(channels[:-1], channels[1:]):
            shape = conv(cin, cout, k=3, s=2, p=(1, 1)).out_shape(shape)
        assert shape == (256, 4, 5)

    def test_published_patch_encoder_chain(self):
        shape = conv(2, 16).out_shape((2, 15, 15))
        assert shape == (16, 13, 13)
        shape = MaxPool2D(2).out_shape(shape)
        assert shape == (16, 6, 6)
        shape = conv(16, 16).out_shape(shape)
        shape = conv(16, 16).out_shape(shape)
        assert shape == (16, 2, 2)

    def test_transposed_conv_formula(self):
        layer = ConvTranspose2D(4, 2, (3, 3), (2, 2), (1, 1), output_padding=(1, 0))
        # (h-1)*2 - 2 + 3 + op
        assert layer.out_shape((4, 10, 10)) == (2, 20, 19)

    def test_upsample_and_pool_factors(self):
        assert Upsample2D(2).out_shape((3, 7, 9)) == (3, 14, 18)
        assert conv(3, 3, k=1, upsample=2).out_shape((3, 7, 9)) == (3, 14, 18)
        assert MaxPool2D(2).out_shape((3, 7, 9)) == (3, 3, 4)

    def test_collapsed_dimension_rejected(self):
        with pytest.raises(LayerError):
            conv(1, 1, k=5).out_shape((1, 4, 4))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(LayerError):
            conv(3, 8).out_shape((2, 10, 10))

    def test_output_padding_below_stride(self):
        with pytest.raises(LayerError, match="output_padding"):
            ConvTranspose2D(1, 1, (3, 3), (2, 2), (1, 1), output_padding=(2, 0))


def forward_has_out_shape(layer, x, train):
    """out_shape of x's (C, H, W) is the shape of forward(x) past the batch;
    where out_shape raises LayerError, forward raises it too."""
    try:
        shape = layer.out_shape(x.shape[1:])
    except LayerError:
        with pytest.raises(LayerError):
            layer.forward(x, train)
        return False
    assert layer.forward(x, train).shape == (len(x), *shape)
    return True


sizes = st.integers(1, 9)
kernels = st.tuples(st.integers(1, 4), st.integers(1, 4))
paddings = st.tuples(st.integers(0, 3), st.integers(0, 3))


class TestOutShapeMatchesForward:
    """Every layer's out_shape is the shape that its forward computes, both
    conv forms (training runs small convs as a dense matrix) included."""

    @settings(max_examples=80, deadline=None)
    @given(h=sizes, w=sizes, kernel=kernels, stride=st.integers(1, 2), padding=paddings,
           upsample=st.integers(1, 3), train=st.booleans())
    def test_conv(self, h, w, kernel, stride, padding, upsample, train):
        stride = 1 if upsample > 1 else stride  # an upsampling conv needs stride 1
        layer = Conv2D(2, 3, kernel, (stride, stride), padding, upsample=upsample)
        forward_has_out_shape(layer, np.ones((2, 2, h, w), np.float32), train)

    @settings(max_examples=60, deadline=None)
    @given(h=sizes, w=sizes, kernel=kernels, stride=st.integers(1, 3), padding=paddings,
           output_padding=st.tuples(st.integers(0, 1), st.integers(0, 1)), train=st.booleans())
    def test_conv_transpose(self, h, w, kernel, stride, padding, output_padding, train):
        output_padding = tuple(min(op, stride - 1) for op in output_padding)
        layer = ConvTranspose2D(2, 3, kernel, (stride, stride), padding, output_padding)
        forward_has_out_shape(layer, np.ones((2, 2, h, w), np.float32), train)

    @settings(max_examples=40, deadline=None)
    @given(h=sizes, w=sizes, factor=st.integers(1, 3), train=st.booleans())
    def test_maxpool(self, h, w, factor, train):
        forward_has_out_shape(MaxPool2D(factor), np.ones((2, 2, h, w), np.float32), train)

    @settings(max_examples=20, deadline=None)
    @given(h=sizes, w=sizes, c=st.integers(1, 4))
    def test_pointwise_and_upsample(self, h, w, c):
        x = np.random.default_rng(h * w).normal(size=(3, c, h, w)).astype(np.float32)
        for layer in (BatchNorm2D(c), BatchNorm2D(c, relu=True), ReLU(), Sigmoid(), Upsample2D(2)):
            for train in (True, False):  # batch norm's training forward comes first
                assert forward_has_out_shape(layer, x, train)

    @pytest.mark.parametrize(
        "layer",
        [conv(3, 4), ConvTranspose2D(3, 4, (3, 3), (2, 2), (1, 1)), BatchNorm2D(3)],
        ids=["conv", "conv_transpose", "batchnorm"],
    )
    def test_channel_mismatch(self, layer):
        with pytest.raises(LayerError, match="expects 3 channels, got 2"):
            layer.out_shape((2, 5, 5))
        assert not forward_has_out_shape(layer, np.ones((1, 2, 5, 5), np.float32), True)

    @pytest.mark.parametrize(
        "layer, hw",
        [
            (conv(2, 2, k=5), (4, 6)),
            (conv(2, 2, k=5, p=(1, 1), upsample=2), (6, 1)),
            (ConvTranspose2D(2, 2, (1, 1), (1, 1), (1, 1)), (1, 4)),
            (MaxPool2D(3), (2, 5)),
        ],
        ids=["conv", "upsampling-conv", "conv_transpose", "maxpool"],
    )
    def test_collapsed_output(self, layer, hw):
        with pytest.raises(LayerError):
            layer.out_shape((2, *hw))
        assert not forward_has_out_shape(layer, np.ones((1, 2, *hw), np.float32), True)


class TestModelPlans:
    def test_ae_round_trip_canonical(self):
        model = AEModel((121, 145))
        shapes = model.encoder.shapes((2, 121, 145))
        assert shapes[-1] == model.bottleneck_shape == (256, 4, 5)
        assert model.decoder.shapes(shapes[-1])[-1] == (2, 121, 145)

    @pytest.mark.parametrize("hw", [(48, 56), (56, 48), (64, 64), (33, 47), (40, 36)])
    def test_ae_round_trip_other_sizes(self, hw):
        model = AEModel(hw)
        assert model.decoder.shapes(model.encoder.shapes((2, *hw))[-1])[-1] == (2, *hw)

    def test_sae_latent_and_output(self):
        model = SAEModel()
        shapes = model.encoder.shapes((2, 15, 15))
        assert shapes[-1] == (16, 2, 2)
        assert model.decoder.shapes(shapes[-1])[-1] == (2, 15, 15)


def small_stack(dtype):
    """A small stack with every kind dense_window accepts, odd and even
    kernels, asymmetric padding and a border it has to zero-fill."""
    return [
        Conv2D(2, 3, (3, 3), (1, 1), (1, 1), False, dtype),
        BatchNorm2D(3, dtype, relu=True),
        Conv2D(3, 4, (2, 3), (1, 1), (1, 0), True, dtype, upsample=2),
        ReLU(),
        Conv2D(4, 2, (3, 2), (1, 1), (2, 1), True, dtype),
        Sigmoid(),
    ]


def sae_decoder(dtype):
    return SAEModel(dtype=dtype).decoder.layers


def upsample_stack(dtype):
    """Factor-3 and factor-2 upsamples folded into convs, one padded past its
    kernel, so some output pixels read only zero padding and their windows
    are empty at that conv's input."""
    return [
        Conv2D(2, 3, (3, 3), (1, 1), (1, 1), True, dtype, upsample=3),
        ReLU(),
        Conv2D(3, 2, (2, 3), (1, 1), (3, 1), True, dtype, upsample=2),
    ]


def padded_stack(dtype):
    """A valid conv before one padded past its kernel, so the valid conv's
    output window can be empty while its input window is not."""
    return [
        Conv2D(2, 3, (3, 3), (1, 1), (0, 0), True, dtype),
        ReLU(),
        Conv2D(3, 2, (2, 3), (1, 1), (3, 1), True, dtype),
    ]


class TestLayerSpans:
    """The key slots that each layer spans: one, or two for a conv with an
    upsample folded in and for a batchnorm that applies its ReLU."""

    def test_sae_decoder_folds_its_upsample(self):
        seq = SAEModel().decoder
        assert [type(layer).__name__ for layer in seq.layers].count("Upsample2D") == 0
        assert seq.layers[4].upsample == 2 and seq.layers[4].W.shape == (16, 16, 3, 3)
        keys = [key for key, _ in seq._parts()]
        assert keys == [
            "L0.conv.", "L1.relu.", "L2.conv.", "L3.relu.", "L5.conv.", "L6.relu.", "L7.conv.", "L8.sigmoid."
        ]

    @pytest.mark.parametrize(
        "nxt",
        [lambda: [Sigmoid()], lambda: [conv(3, 3)], lambda: [BatchNorm2D(3)], lambda: []],
        ids=["sigmoid", "conv", "batchnorm", "trailing"],
    )
    def test_batchnorm_takes_only_a_relu(self, nxt):
        # A batchnorm that applies its ReLU takes the ReLU's slot too; one
        # that does not takes one slot.
        after = nxt()
        layers = [conv(2, 3), BatchNorm2D(3, relu=True), BatchNorm2D(3), *after]
        seq = Sequential(layers, np.random.default_rng(0))
        assert [seq.layers[1].relu, seq.layers[2].relu] == [True, False]
        keys = [key for key, _ in seq._parts()]
        assert keys == ["L0.conv.", "L1.batchnorm.", "L3.batchnorm.", *(f"L4.{x.kind}." for x in after)]
        assert [k for k in seq.params() if "batchnorm" in k][:4] == [
            "L1.batchnorm.gamma", "L1.batchnorm.beta", "L3.batchnorm.gamma", "L3.batchnorm.beta"
        ]

    def test_ae_applies_each_relu_in_its_batchnorm(self):
        model = AEModel((56, 48))
        layers = [*model.encoder.layers, *model.decoder.layers]
        assert [layer.relu for layer in layers if isinstance(layer, BatchNorm2D)] == [True] * 9
        assert not [layer for layer in layers if isinstance(layer, ReLU)]

    def test_same_initial_weights_as_unfolded(self, unfolded_sae_decoder):
        # The folded conv draws its weights exactly as it did after its own
        # upsample, under the same key.  Each conv's initialization follows
        # from the layer after it.
        folded = Sequential(sae_decoder(np.float32), np.random.default_rng(3)).params()
        apart = Sequential(unfolded_sae_decoder(), np.random.default_rng(3)).params()
        assert list(folded) == list(apart)
        assert all(np.array_equal(folded[k], apart[k]) for k in folded)


class TestForwardWindow:
    """Sequential.dense_window must equal the cropped full forward up to
    summation order: its matrix products sum each output in another order
    than the convolutions, so float64 agrees to 1e-12 and float32 to the
    bound perfbench's fast-path check uses (rtol 1e-5, atol 1e-6)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "stack, in_shape",
        [
            (small_stack, (2, 5, 6)),
            (sae_decoder, (16, 2, 2)),
            (upsample_stack, (2, 3, 4)),
            (padded_stack, (2, 5, 6)),
        ],
        ids=["small", "sae-decoder", "upsample", "padded"],
    )
    def test_windows_equal_cropped_forward(self, stack, in_shape, dtype):
        rng = np.random.default_rng(5)
        seq = Sequential(stack(dtype), rng)
        for layer in seq.layers:  # nonzero biases, so a wrongly zero-filled border shows
            if hasattr(layer, "b"):
                layer.b = rng.normal(size=layer.b.shape).astype(dtype)
        x = rng.normal(size=(3, *in_shape)).astype(dtype)
        seq.forward(x, True)  # gives batch norm running statistics
        full = seq.forward(x, False)
        h, w = full.shape[2:]
        windows = [((r, r + 1), (c, c + 1)) for r in range(h) for c in range(w)]
        windows += [((0, h), (0, w)), ((0, 3), (w - 2, w)), ((h - 1, h), (0, w)), ((2, h), (1, 4))]
        for rows, cols in windows:
            got = seq.dense_window(in_shape, rows, cols)(x)
            ref = full[:, :, slice(*rows), slice(*cols)]
            tol = dict(rtol=1e-5, atol=1e-6) if dtype == np.float32 else dict(rtol=1e-12, atol=1e-12)
            assert got.dtype == dtype
            np.testing.assert_allclose(got, ref, **tol, err_msg=str((rows, cols)))

    @pytest.mark.parametrize(
        "layer, window",
        [
            (MaxPool2D(2), ((0, 1), (0, 1))),
            (ConvTranspose2D(2, 2, (3, 3), (2, 2), (0, 0)), ((0, 1), (0, 1))),
            (conv(2, 2, k=3, s=2, p=(1, 1)), ((0, 1), (0, 1))),
            (conv(2, 2), ((0, 1), (0, 7))),  # past the 6-column output
            (Upsample2D(2), ((0, 1), (0, 1))),
        ],
        ids=["maxpool", "conv_transpose", "strided-conv", "outside", "upsample"],
    )
    def test_rejected(self, layer, window):
        seq = Sequential([layer], np.random.default_rng(0))
        with pytest.raises(LayerError):
            seq.dense_window((2, 8, 8), *window)


def basis_matrices(seq, in_shape, rows, cols):
    """Reference for the conv steps of seq.dense_window(in_shape, rows, cols):
    each conv's matrix between its input and output windows, built by running
    a copy of the conv (sharing W, bias off) on an identity basis of its
    input window, at the least padding whose output covers its output
    window, and cropping to that window; a zero matrix for an empty window."""
    shapes = seq.shapes(in_shape)
    wins = [(rows, cols)]
    for layer, shape in zip(reversed(seq.layers), reversed(shapes[:-1])):
        need = layer.window_input(wins[0])
        wins.insert(0, tuple(tuple(min(max(v, 0), n) for v in ab) for ab, n in zip(need, shape[1:])))
    matrices = []
    for i, layer in enumerate(seq.layers):
        if not isinstance(layer, Conv2D):
            continue
        have, out = wins[i], wins[i + 1]
        shape = (shapes[i][0], *(b - a for a, b in have))
        f = layer.upsample
        least = [
            max(0, f * h0 + p - o0, o1 - p + k - 1 - f * h1)
            for (h0, h1), (o0, o1), k, p in zip(have, out, layer.kernel, layer.padding)
        ]
        origin = [f * a + p - q for (a, _), p, q in zip(have, layer.padding, least)]
        linear = copy.copy(layer)
        linear.padding, linear.bias = tuple(least), False
        n, m = math.prod(shape), shapes[i + 1][0] * math.prod(b - a for a, b in out)
        matrix = np.zeros((n, m), seq.dtype)
        if n and m:
            basis = np.eye(n, dtype=seq.dtype).reshape(n, *shape)
            crop = (..., *(slice(a - o, b - o) for (a, b), o in zip(out, origin)))
            matrix = linear.forward(basis, False)[crop].reshape(n, m)
        matrices.append(matrix)
    return matrices


WINDOW_STACKS = [
    (small_stack, (2, 5, 6)),
    (sae_decoder, (16, 2, 2)),
    (upsample_stack, (2, 3, 4)),
    (padded_stack, (2, 5, 6)),
]


class TestWindowMatrices:
    """dense_window gathers each conv step's matrix from W (Conv2D.matrix),
    as the training dense form does; it must be the identity-basis matrix of
    basis_matrices byte for byte, for every window."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stack, in_shape", WINDOW_STACKS, ids=["small", "sae-decoder", "upsample", "padded"])
    def test_equal_identity_basis_bytes(self, stack, in_shape, dtype):
        seq = Sequential(stack(dtype), np.random.default_rng(5))
        h, w = seq.shapes(in_shape)[-1][1:]
        windows = [((r, r + 1), (c, c + 1)) for r in range(h) for c in range(w)]
        windows += [((0, h), (0, w)), ((0, 3), (w - 2, w)), ((h - 1, h), (0, w)), ((2, h), (1, 4))]
        empty = 0
        for rows, cols in windows:
            got = [op for op, _ in seq.dense_window(in_shape, rows, cols).steps if isinstance(op, np.ndarray)]
            ref = basis_matrices(seq, in_shape, rows, cols)
            assert [(m.shape, m.dtype) for m in got] == [(m.shape, m.dtype) for m in ref], (rows, cols)
            assert [m.tobytes() for m in got] == [m.tobytes() for m in ref], (rows, cols)
            empty += sum(not m.size for m in got)
        # The padded stacks have windows that read only padding, or none.
        assert (empty > 0) == (stack in (upsample_stack, padded_stack))

    def test_runs_no_conv_forward(self, monkeypatch):
        rng = np.random.default_rng(5)
        built = []
        for stack, in_shape in WINDOW_STACKS:
            seq = Sequential(stack(np.float32), rng)
            x = rng.normal(size=(3, *in_shape)).astype(np.float32)
            seq.forward(x, True)  # gives batch norm running statistics
            built.append((seq, in_shape, x))

        def refuse(self, x, train):
            raise AssertionError("dense_window ran a conv forward")

        monkeypatch.setattr(Conv2D, "forward", refuse)
        for seq, in_shape, x in built:
            out = seq.shapes(in_shape)[-1]
            assert seq.dense_window(in_shape, (0, out[1]), (0, out[2]))(x).shape == (3, *out)
