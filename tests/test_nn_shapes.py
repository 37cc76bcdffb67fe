import copy
import math

import numpy as np
import pytest

from anomvox.models import AEModel, plan_ae_specs, sae_specs
from anomvox.nn import (
    BatchNorm2D,
    Conv2D,
    LayerSpec,
    ReLU,
    Sequential,
    ShapeError,
    chain_shapes,
    out_shape,
    resolve_padding,
)
from anomvox.nn.network import window_input


def conv(cin, cout, k=3, s=1, p="valid"):
    return LayerSpec("conv", in_channels=cin, out_channels=cout, kernel=(k, k), stride=(s, s), padding=p)


class TestOutShape:
    def test_strided_conv_formula(self):
        spec = conv(2, 16, k=3, s=2, p=(1, 1))
        assert out_shape(spec, (2, 121, 145)) == (16, 61, 73)

    def test_published_encoder_bottleneck(self):
        # Five stacked stride-2 convolutions take 121x145 to 4x5.
        shape = (2, 121, 145)
        channels = [2, 16, 32, 64, 128, 256]
        for cin, cout in zip(channels[:-1], channels[1:]):
            shape = out_shape(conv(cin, cout, k=3, s=2, p=(1, 1)), shape)
        assert shape == (256, 4, 5)

    def test_published_patch_encoder_chain(self):
        shape = out_shape(conv(2, 16), (2, 15, 15))
        assert shape == (16, 13, 13)
        shape = out_shape(LayerSpec("maxpool"), shape)
        assert shape == (16, 6, 6)
        shape = out_shape(conv(16, 16), shape)
        shape = out_shape(conv(16, 16), shape)
        assert shape == (16, 2, 2)

    def test_transposed_conv_formula(self):
        spec = LayerSpec(
            "conv_transpose", in_channels=4, out_channels=2, kernel=(3, 3), stride=(2, 2),
            padding=(1, 1), output_padding=(1, 0),
        )
        # (h-1)*2 - 2 + 3 + op
        assert out_shape(spec, (4, 10, 10)) == (2, 20, 19)

    def test_upsample_and_pool_factors(self):
        assert out_shape(LayerSpec("upsample"), (3, 7, 9)) == (3, 14, 18)
        assert out_shape(LayerSpec("maxpool"), (3, 7, 9)) == (3, 3, 4)

    def test_collapsed_dimension_rejected(self):
        with pytest.raises(ShapeError):
            out_shape(conv(1, 1, k=5), (1, 4, 4))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            out_shape(conv(3, 8), (2, 10, 10))

    def test_output_padding_below_stride(self):
        spec = LayerSpec(
            "conv_transpose", in_channels=1, out_channels=1, kernel=(3, 3), stride=(2, 2),
            padding=(1, 1), output_padding=(2, 0),
        )
        with pytest.raises(ShapeError, match="output_padding"):
            out_shape(spec, (1, 4, 4))


class TestPadding:
    def test_named_paddings(self):
        assert resolve_padding("valid", (3, 3)) == (0, 0)
        assert resolve_padding("full", (3, 3)) == (2, 2)
        assert resolve_padding("full", (2, 2)) == (1, 1)


class TestModelPlans:
    def test_ae_round_trip_canonical(self):
        enc, dec, bottleneck = plan_ae_specs((121, 145))
        assert bottleneck == (256, 4, 5)
        assert chain_shapes(enc + dec, (2, 121, 145))[-1] == (2, 121, 145)

    @pytest.mark.parametrize("hw", [(48, 56), (56, 48), (64, 64), (33, 47), (40, 36)])
    def test_ae_round_trip_other_sizes(self, hw):
        enc, dec, _ = plan_ae_specs(hw)
        assert chain_shapes(enc + dec, (2, *hw))[-1] == (2, *hw)

    def test_sae_latent_and_output(self):
        enc, dec = sae_specs()
        assert chain_shapes(enc, (2, 15, 15))[-1] == (16, 2, 2)
        assert chain_shapes(enc + dec, (2, 15, 15))[-1] == (2, 15, 15)


# A small stack with every kind dense_window accepts, odd and even
# kernels, asymmetric padding and a border it has to zero-fill.
SMALL_STACK = [
    LayerSpec("conv", in_channels=2, out_channels=3, kernel=(3, 3), padding=(1, 1)),
    LayerSpec("batchnorm", in_channels=3),
    LayerSpec("relu"),
    LayerSpec("upsample", factor=2),
    LayerSpec("conv", in_channels=3, out_channels=4, kernel=(2, 3), padding=(1, 0)),
    LayerSpec("relu"),
    LayerSpec("conv", in_channels=4, out_channels=2, kernel=(3, 2), padding="full"),
    LayerSpec("sigmoid"),
]


# Factor-3 and factor-2 upsamples folded into convs, one padded past its
# kernel, so some output pixels read only zero padding and their windows
# are empty at that conv's input.
UPSAMPLE_STACK = [
    LayerSpec("upsample", factor=3),
    LayerSpec("conv", in_channels=2, out_channels=3, kernel=(3, 3), padding=(1, 1)),
    LayerSpec("relu"),
    LayerSpec("upsample", factor=2),
    LayerSpec("conv", in_channels=3, out_channels=2, kernel=(2, 3), padding=(3, 1)),
]


# A valid conv before one padded past its kernel, so the valid conv's
# output window can be empty while its input window is not.
PADDED_STACK = [
    conv(2, 3),
    LayerSpec("relu"),
    LayerSpec("conv", in_channels=3, out_channels=2, kernel=(2, 3), padding=(3, 1)),
]


class TestLayerSpans:
    def test_sae_decoder_folds_its_upsample(self):
        seq = Sequential(sae_specs()[1], np.random.default_rng(0))
        assert seq.spans == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 6), (6, 7), (7, 8), (8, 9)]
        assert [type(layer).__name__ for layer in seq.layers].count("Upsample2D") == 0
        assert seq.layers[4].upsample == 2 and seq.layers[4].W.shape == (16, 16, 3, 3)

    @pytest.mark.parametrize(
        "nxt",
        [[LayerSpec("relu")], [conv(2, 2, s=2)], []],
        ids=["relu", "strided-conv", "trailing"],
    )
    def test_upsample_kept_apart(self, nxt):
        # Every upsample folds into the conv after it; none is built alone.
        with pytest.raises(ShapeError, match="upsample spec 0 is not followed by a stride-1 conv"):
            Sequential([LayerSpec("upsample"), *nxt], np.random.default_rng(0))

    @pytest.mark.parametrize(
        "nxt",
        [[LayerSpec("sigmoid")], [conv(3, 3)], [LayerSpec("batchnorm", in_channels=3)], []],
        ids=["sigmoid", "conv", "batchnorm", "trailing"],
    )
    def test_batchnorm_takes_only_a_relu(self, nxt):
        # A batchnorm and the relu after it are one layer, named after the
        # batchnorm; a batchnorm before anything else is a layer of its own.
        bn = LayerSpec("batchnorm", in_channels=3)
        seq = Sequential([conv(2, 3), bn, LayerSpec("relu"), bn, *nxt], np.random.default_rng(0))
        assert seq.spans[:3] == [(0, 1), (1, 3), (3, 4)]
        assert [seq.layers[1].relu, seq.layers[2].relu] == [True, False]
        assert [k for k in seq.params() if "batchnorm" in k][:4] == [
            "L1.batchnorm.gamma", "L1.batchnorm.beta", "L3.batchnorm.gamma", "L3.batchnorm.beta"
        ]

    def test_ae_applies_each_relu_in_its_batchnorm(self):
        model = AEModel((56, 48))
        layers = [*model.encoder.layers, *model.decoder.layers]
        assert [layer.relu for layer in layers if isinstance(layer, BatchNorm2D)] == [True] * 9
        assert not [layer for layer in layers if isinstance(layer, ReLU)]

    def test_same_initial_weights_as_unfolded(self):
        # The folded conv draws its weights exactly as it did after its own
        # upsample.  Each conv is built with the spec after it, which sets its
        # bias and initialization.
        specs = sae_specs()[1]
        folded = Sequential(specs, np.random.default_rng(3)).params()
        rng = np.random.default_rng(3)
        apart = {}
        for i, spec in enumerate(specs):
            if spec.kind == "conv":
                layer = Sequential([spec, specs[i + 1]], rng).layers[0]
                apart.update({f"L{i}.conv.{k}": v for k, v in layer.params().items()})
        assert list(folded) == list(apart)
        assert all(np.array_equal(folded[k], apart[k]) for k in folded)


class TestForwardWindow:
    """Sequential.dense_window must equal the cropped full forward up to
    summation order: its matrix products sum each output in another order
    than the convolutions, so float64 agrees to 1e-12 and float32 to the
    bound perfbench's fast-path check uses (rtol 1e-5, atol 1e-6)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "specs, in_shape",
        [
            (SMALL_STACK, (2, 5, 6)),
            (sae_specs()[1], (16, 2, 2)),
            (UPSAMPLE_STACK, (2, 3, 4)),
            (PADDED_STACK, (2, 5, 6)),
        ],
        ids=["small", "sae-decoder", "upsample", "padded"],
    )
    def test_windows_equal_cropped_forward(self, specs, in_shape, dtype):
        rng = np.random.default_rng(5)
        seq = Sequential(specs, rng, dtype)
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
        "spec, window",
        [
            (LayerSpec("maxpool", factor=2), ((0, 1), (0, 1))),
            (
                LayerSpec("conv_transpose", in_channels=2, out_channels=2, kernel=(3, 3), stride=(2, 2)),
                ((0, 1), (0, 1)),
            ),
            (conv(2, 2, k=3, s=2, p=(1, 1)), ((0, 1), (0, 1))),
            (conv(2, 2), ((0, 1), (0, 7))),  # past the 6-column output
        ],
        ids=["maxpool", "conv_transpose", "strided-conv", "outside"],
    )
    def test_rejected(self, spec, window):
        seq = Sequential([spec], np.random.default_rng(0))
        with pytest.raises(ShapeError):
            seq.dense_window((2, 8, 8), *window)


def basis_matrices(seq, in_shape, rows, cols):
    """Reference for the conv steps of seq.dense_window(in_shape, rows, cols):
    each conv's matrix between its input and output windows, built by running
    a copy of the conv (sharing W, bias off) on an identity basis of its
    input window, at the least padding whose output covers its output
    window, and cropping to that window; a zero matrix for an empty window."""
    shapes = [tuple(in_shape), *chain_shapes(seq.specs, tuple(in_shape))]
    wins = [(rows, cols)]
    for spec, shape in zip(reversed(seq.specs), reversed(shapes[:-1])):
        need = window_input(spec, wins[0])
        wins.insert(0, tuple(tuple(min(max(v, 0), n) for v in ab) for ab, n in zip(need, shape[1:])))
    matrices = []
    for (start, stop), layer in zip(seq.spans, seq.layers):
        if not isinstance(layer, Conv2D):
            continue
        have, out = wins[start], wins[stop]
        shape = (shapes[start][0], *(b - a for a, b in have))
        f = layer.upsample
        least = [
            max(0, f * h0 + p - o0, o1 - p + k - 1 - f * h1)
            for (h0, h1), (o0, o1), k, p in zip(have, out, layer.kernel, layer.padding)
        ]
        origin = [f * a + p - q for (a, _), p, q in zip(have, layer.padding, least)]
        linear = copy.copy(layer)
        linear.padding, linear.bias = tuple(least), False
        n, m = math.prod(shape), shapes[stop][0] * math.prod(b - a for a, b in out)
        matrix = np.zeros((n, m), seq.dtype)
        if n and m:
            basis = np.eye(n, dtype=seq.dtype).reshape(n, *shape)
            crop = (..., *(slice(a - o, b - o) for (a, b), o in zip(out, origin)))
            matrix = linear.forward(basis, False)[crop].reshape(n, m)
        matrices.append(matrix)
    return matrices


WINDOW_STACKS = [
    (SMALL_STACK, (2, 5, 6)),
    (sae_specs()[1], (16, 2, 2)),
    (UPSAMPLE_STACK, (2, 3, 4)),
    (PADDED_STACK, (2, 5, 6)),
]


class TestWindowMatrices:
    """dense_window gathers each conv step's matrix from W (Conv2D.matrix),
    as the training dense form does; it must be the identity-basis matrix of
    basis_matrices byte for byte, for every window."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("specs, in_shape", WINDOW_STACKS, ids=["small", "sae-decoder", "upsample", "padded"])
    def test_equal_identity_basis_bytes(self, specs, in_shape, dtype):
        seq = Sequential(specs, np.random.default_rng(5), dtype)
        h, w = chain_shapes(specs, in_shape)[-1][1:]
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
        assert (empty > 0) == (specs in (UPSAMPLE_STACK, PADDED_STACK))

    def test_runs_no_conv_forward(self, monkeypatch):
        rng = np.random.default_rng(5)
        built = []
        for specs, in_shape in WINDOW_STACKS:
            seq = Sequential(specs, rng)
            x = rng.normal(size=(3, *in_shape)).astype(np.float32)
            seq.forward(x, True)  # gives batch norm running statistics
            built.append((seq, in_shape, x))

        def refuse(self, x, train):
            raise AssertionError("dense_window ran a conv forward")

        monkeypatch.setattr(Conv2D, "forward", refuse)
        for seq, in_shape, x in built:
            out = chain_shapes(seq.specs, in_shape)[-1]
            assert seq.dense_window(in_shape, (0, out[1]), (0, out[2]))(x).shape == (3, *out)
