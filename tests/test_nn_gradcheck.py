"""Finite-difference oracles for every layer kind and for whole models.

Per-layer checks wrap one layer in a quadratic readout loss and compare the
analytic parameter/input gradients against central differences with h = 1e-4;
inputs are drawn away from ReLU kinks so the derivative exists everywhere the
stencil lands.  Full-model checks go through nn.grad_check.
"""

import numpy as np
import pytest

from anomvox.models import AEModel, SAEModel
from anomvox.nn import (
    BatchNorm2D,
    Conv2D,
    ConvTranspose2D,
    MaxPool2D,
    ReLU,
    Sigmoid,
    Upsample2D,
    grad_check,
)

H = 1e-4
TOL = 1e-4


def quad_loss_and_grad(y, target):
    # 0.5 * sum((y - t)^2): smooth readout with gradient (y - t).
    return 0.5 * float(np.square(y - target).sum()), (y - target)


def layer_param_check(layer, x, params):
    """Central-difference check of all parameter gradients of one layer."""
    target = np.zeros_like(layer.forward(x, train=True))
    _, dy = quad_loss_and_grad(layer.forward(x, train=True), target)
    layer.backward(dy)
    grads = layer.grads()
    worst = 0.0
    for name in params:
        p = getattr(layer, name)
        ga = grads[name]
        flat = p.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + H
            lp, _ = quad_loss_and_grad(layer.forward(x, train=True), target)
            flat[i] = orig - H
            lm, _ = quad_loss_and_grad(layer.forward(x, train=True), target)
            flat[i] = orig
            num = (lp - lm) / (2 * H)
            worst = max(worst, abs(num - gflat[i]) / max(abs(num), abs(gflat[i]), 1e-4))
    return worst


def layer_input_check(layer, x):
    target = np.zeros_like(layer.forward(x, train=True))
    _, dy = quad_loss_and_grad(layer.forward(x, train=True), target)
    dx = layer.backward(dy)
    rng = np.random.default_rng(0)
    flat = x.reshape(-1)
    picks = rng.choice(flat.size, min(24, flat.size), replace=False)
    worst = 0.0
    for i in picks:
        orig = flat[i]
        flat[i] = orig + H
        lp, _ = quad_loss_and_grad(layer.forward(x, train=True), target)
        flat[i] = orig - H
        lm, _ = quad_loss_and_grad(layer.forward(x, train=True), target)
        flat[i] = orig
        num = (lp - lm) / (2 * H)
        worst = max(worst, abs(num - dx.reshape(-1)[i]) / max(abs(num), abs(dx.reshape(-1)[i]), 1e-4))
    return worst


def away_from_kinks(rng, shape, margin=0.05):
    x = rng.normal(size=shape)
    x[np.abs(x) < margin] += np.sign(x[np.abs(x) < margin] + 0.5) * margin
    return x


def away_from_batchnorm_kinks(rng, layer, shape, margin=0.05):
    """An input whose batch-normalized values gamma * xhat + beta all lie at
    least margin from the ReLU's kink at 0: the entries that land nearer are
    redrawn, which moves the batch statistics a little, until none does."""
    plain = BatchNorm2D(shape[1], dtype=np.float64)
    plain.set_params(layer.params())
    x = rng.normal(size=shape)
    for _ in range(100):
        near = np.abs(plain.forward(x, train=True)) < margin
        if not near.any():
            return x
        x[near] = rng.normal(size=int(near.sum()))
    raise AssertionError("no input away from the kinks")


class TestPerLayerFiniteDifferences:
    def test_conv(self):
        rng = np.random.default_rng(0)
        layer = Conv2D(2, 3, (3, 3), (2, 2), (1, 1), True, np.float64)
        layer.W = rng.normal(size=layer.W.shape) * 0.5
        layer.b = rng.normal(size=layer.b.shape) * 0.5
        x = rng.normal(size=(2, 2, 6, 7))
        assert layer_param_check(layer, x, ("W", "b")) <= TOL
        assert layer_input_check(layer, x) <= TOL

    def test_upsampling_conv(self):
        rng = np.random.default_rng(7)
        layer = Conv2D(2, 3, (3, 3), (1, 1), (2, 2), True, np.float64, upsample=2)
        layer.W = rng.normal(size=layer.W.shape) * 0.5
        layer.b = rng.normal(size=layer.b.shape) * 0.5
        x = rng.normal(size=(2, 2, 3, 4))
        assert layer_param_check(layer, x, ("W", "b")) <= TOL
        assert layer_input_check(layer, x) <= TOL

    def test_conv_transpose(self):
        rng = np.random.default_rng(1)
        layer = ConvTranspose2D(3, 2, (3, 3), (2, 2), (1, 1), (1, 0), True, np.float64)
        layer.W = rng.normal(size=layer.W.shape) * 0.5
        layer.b = rng.normal(size=layer.b.shape) * 0.5
        x = rng.normal(size=(2, 3, 5, 5))
        assert layer_param_check(layer, x, ("W", "b")) <= TOL
        assert layer_input_check(layer, x) <= TOL

    def test_conv_thin_output(self):
        # The SAE's dec4 shape: a 16 -> 2 full conv, whose data gradient
        # gathers its taps in one product while its forward runs per tap.
        rng = np.random.default_rng(8)
        layer = Conv2D(16, 2, (2, 2), (1, 1), (1, 1), True, np.float64)
        layer.W = rng.normal(size=layer.W.shape) * 0.5
        layer.b = rng.normal(size=layer.b.shape) * 0.5
        x = rng.normal(size=(2, 16, 4, 3))
        assert layer_param_check(layer, x, ("W", "b")) <= TOL
        assert layer_input_check(layer, x) <= TOL

    def test_conv_transpose_thin_output(self):
        # The AE's dec5 shape: 16 -> 2, whose backward correlation and weight
        # gradient run stacked while its forward scatters per tap.
        rng = np.random.default_rng(9)
        layer = ConvTranspose2D(16, 2, (3, 3), (2, 2), (1, 1), (1, 0), True, np.float64)
        layer.W = rng.normal(size=layer.W.shape) * 0.5
        layer.b = rng.normal(size=layer.b.shape) * 0.5
        x = rng.normal(size=(2, 16, 3, 3))
        assert layer_param_check(layer, x, ("W", "b")) <= TOL
        assert layer_input_check(layer, x) <= TOL

    def test_batchnorm(self):
        rng = np.random.default_rng(2)
        layer = BatchNorm2D(3, dtype=np.float64)
        layer.gamma = rng.normal(size=3) + 1.5
        layer.beta = rng.normal(size=3)
        x = rng.normal(size=(4, 3, 5, 5))
        assert layer_param_check(layer, x, ("gamma", "beta")) <= TOL
        assert layer_input_check(layer, x) <= TOL

    def test_batchnorm_relu(self):
        # The fused layer's kink sits at its normalized value, so the input
        # keeps every gamma * xhat + beta away from 0, as test_relu keeps x.
        rng = np.random.default_rng(10)
        layer = BatchNorm2D(3, dtype=np.float64, relu=True)
        layer.gamma = rng.normal(size=3) + 1.5
        layer.beta = rng.normal(size=3)
        x = away_from_batchnorm_kinks(rng, layer, (4, 3, 5, 5))
        assert layer_param_check(layer, x, ("gamma", "beta")) <= TOL
        assert layer_input_check(layer, x) <= TOL

    def test_relu(self):
        rng = np.random.default_rng(3)
        x = away_from_kinks(rng, (2, 2, 5, 5), margin=10 * H)
        assert layer_input_check(ReLU(), x) <= TOL

    def test_sigmoid(self):
        rng = np.random.default_rng(4)
        assert layer_input_check(Sigmoid(), rng.normal(size=(2, 2, 5, 5))) <= TOL

    def test_maxpool(self):
        rng = np.random.default_rng(5)
        assert layer_input_check(MaxPool2D(2), rng.normal(size=(2, 2, 6, 6))) <= TOL

    def test_upsample(self):
        rng = np.random.default_rng(6)
        assert layer_input_check(Upsample2D(2), rng.normal(size=(2, 2, 3, 4))) <= TOL


class TestFullModelGradCheck:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ae_with_l1_loss(self, seed):
        rng = np.random.default_rng(100 + seed)
        model = AEModel((8, 10), seed=seed, dtype=np.float64)
        x = rng.uniform(0.05, 0.95, size=(2, 2, 8, 10))
        report = grad_check(model, x, samples_per_param=6, seed=seed)
        assert report.passed, report.per_param

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sae_with_pair_loss(self, seed):
        rng = np.random.default_rng(200 + seed)
        model = SAEModel(alpha=0.005, seed=seed, dtype=np.float64)
        x1 = rng.uniform(0.05, 0.95, size=(3, 2, 15, 15))
        x2 = rng.uniform(0.05, 0.95, size=(3, 2, 15, 15))
        report = grad_check(model, (x1, x2), samples_per_param=6, seed=seed)
        assert report.passed, report.per_param

    def test_zero_loss_configuration(self):
        # Target equal to the (detached) output: zero loss, zero gradients.
        from anomvox.models import ae_loss_grad

        model = AEModel((8, 10), seed=0, dtype=np.float64)
        x = np.random.default_rng(9).uniform(0.2, 0.8, size=(2, 2, 8, 10))
        xhat = model.forward(x, train=True)
        loss, dxhat = ae_loss_grad(xhat.copy(), xhat)
        assert loss == 0.0
        model.encoder.backward(model.decoder.backward(dxhat))
        for name, g in model.grads().items():
            assert not g.any(), name

    def test_gradcheck_restores_running_stats(self):
        model = AEModel((8, 10), seed=1, dtype=np.float64)
        x = np.random.default_rng(10).uniform(size=(2, 2, 8, 10))
        model.loss_and_grads(x)  # one training pass to set stats
        before = {k: v.copy() for k, v in model.state().items()}
        grad_check(model, x, samples_per_param=2, seed=0)
        after = model.state()
        for k in before:
            assert np.array_equal(before[k], after[k])
