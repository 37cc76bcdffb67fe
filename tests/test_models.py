import contextlib
import hashlib
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from anomvox import models
from anomvox.config import PipelineConfig
from anomvox.models import (
    AEModel,
    ModelError,
    SAEModel,
    TrainConfig,
    TrainingDivergedError,
    ae_loss_grad,
    load_model,
    sae_loss_grad,
    sae_specs,
    save_model,
    train,
)
from anomvox.nn import AdamState, Sequential, Upsample2D, adam_step, save_checkpoint
from anomvox.sampling import gather_patches

RNG = np.random.default_rng(77)


def cosine64(z1, z2):
    """Cosine of two flattened vectors in float64, the oracle's definition."""
    z1 = np.asarray(z1, dtype=np.float64).reshape(-1)
    z2 = np.asarray(z2, dtype=np.float64).reshape(-1)
    return float(np.dot(z1, z2) / (np.linalg.norm(z1) * np.linalg.norm(z2)))


class TestDefaults:
    def test_published_hyperparameters(self):
        ae, sae = PipelineConfig().ae_train, PipelineConfig().sae_train
        assert (ae.epochs, ae.batch_size, ae.learning_rate) == (160, 40, 1e-3)
        assert (sae.epochs, sae.batch_size, sae.learning_rate, sae.alpha) == (30, 225, 1e-3, 0.005)


class TestAeLoss:
    def test_zero_at_identity(self):
        x = RNG.random((3, 2, 4, 4), dtype=np.float32)
        assert ae_loss_grad(x, x)[0] == 0.0

    def test_two_unit_elements(self):
        x = np.array([1.0, 1.0], dtype=np.float32).reshape(1, 1, 1, 2)
        xhat = np.zeros_like(x)
        assert ae_loss_grad(x, xhat)[0] == 2.0

    def test_matches_elementwise_oracle(self):
        x = RNG.random((5, 2, 6, 7), dtype=np.float32)
        xhat = RNG.random((5, 2, 6, 7), dtype=np.float32)
        # brute-force accumulation, one element at a time
        total = 0.0
        for b in range(5):
            for v1, v2 in zip(x[b].reshape(-1), xhat[b].reshape(-1)):
                total += abs(float(v1) - float(v2))
        assert ae_loss_grad(x, xhat)[0] == pytest.approx(total / 5, rel=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(Exception, match="shape"):
            ae_loss_grad(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2, 3)))


class TestSaeLoss:
    def test_perfect_reconstruction_identical_latents(self):
        x1 = RNG.random((4, 2, 15, 15), dtype=np.float32)
        x2 = RNG.random((4, 2, 15, 15), dtype=np.float32)
        z = RNG.normal(size=(4, 16, 2, 2)).astype(np.float32)
        val = sae_loss_grad(x1, x2, x1, x2, z, z, alpha=0.005)[0]
        assert val == pytest.approx(-0.005, abs=1e-7)

    def test_orthogonal_latents_zero_loss(self):
        x1 = RNG.random((1, 2, 15, 15), dtype=np.float32)
        z1 = np.zeros((1, 8), dtype=np.float32)
        z2 = np.zeros((1, 8), dtype=np.float32)
        z1[0, 0] = 1.0
        z2[0, 1] = 1.0
        assert sae_loss_grad(x1, x1, x1, x1, z1, z2, alpha=0.005)[0] == pytest.approx(0.0, abs=1e-9)

    def test_zero_latent_cosine_guarded(self):
        x1 = RNG.random((2, 2, 15, 15), dtype=np.float32)
        xh1 = RNG.random((2, 2, 15, 15), dtype=np.float32)
        z1 = RNG.normal(size=(2, 8)).astype(np.float32)
        z2 = z1.copy()
        z2[0] = 0.0
        with pytest.warns(RuntimeWarning, match="zero latent"):
            val = sae_loss_grad(x1, x1, xh1, xh1, z1, z2, alpha=0.5)[0]
        mse = [2 * float(np.mean((x1[b] - xh1[b]) ** 2, dtype=np.float64)) for b in range(2)]
        assert val == pytest.approx((mse[0] + mse[1] - 0.5) / 2, rel=1e-5)

    def test_matches_two_term_oracle(self):
        x1 = RNG.random((3, 2, 15, 15), dtype=np.float32)
        x2 = RNG.random((3, 2, 15, 15), dtype=np.float32)
        xh1 = RNG.random((3, 2, 15, 15), dtype=np.float32)
        xh2 = RNG.random((3, 2, 15, 15), dtype=np.float32)
        z1 = RNG.normal(size=(3, 64)).astype(np.float32)
        z2 = RNG.normal(size=(3, 64)).astype(np.float32)
        expect = 0.0
        for b in range(3):
            mse1 = float(np.mean((x1[b] - xh1[b]) ** 2))
            mse2 = float(np.mean((x2[b] - xh2[b]) ** 2))
            expect += mse1 + mse2 - 0.005 * cosine64(z1[b], z2[b])
        expect /= 3
        assert sae_loss_grad(x1, x2, xh1, xh2, z1, z2, 0.005)[0] == pytest.approx(expect, rel=1e-5)

    def test_alpha_derivative_is_minus_cosine(self):
        # dL/dalpha == -cos(z1, z2), probed by perturbing alpha.
        x1 = RNG.random((2, 2, 15, 15), dtype=np.float32)
        xh1 = RNG.random((2, 2, 15, 15), dtype=np.float32)
        z1 = RNG.normal(size=(2, 32))
        z2 = RNG.normal(size=(2, 32))
        eps = 1e-4
        la = sae_loss_grad(x1, x1, xh1, xh1, z1, z2, 0.005 + eps)[0]
        lb = sae_loss_grad(x1, x1, xh1, xh1, z1, z2, 0.005 - eps)[0]
        mean_cos = np.mean([cosine64(z1[b], z2[b]) for b in range(2)])
        assert (la - lb) / (2 * eps) == pytest.approx(-mean_cos, rel=1e-4)

    def test_alpha_monotone_when_aligned(self):
        x1 = RNG.random((2, 2, 15, 15), dtype=np.float32)
        z = RNG.normal(size=(2, 32))
        small = sae_loss_grad(x1, x1, x1, x1, z, z + 0.01, 0.005)[0]
        large = sae_loss_grad(x1, x1, x1, x1, z, z + 0.01, 0.05)[0]
        assert large < small


class TestArchitectures:
    def test_ae_bottleneck_canonical(self):
        model = AEModel((121, 145), seed=0)
        assert model.bottleneck_shape == (256, 4, 5)

    def test_ae_output_matches_input_shape(self):
        model = AEModel((56, 48), seed=0)
        x = RNG.random((2, 2, 56, 48), dtype=np.float32)
        assert model.forward(x, train=True).shape == x.shape

    def test_sae_latent_shape(self):
        model = SAEModel(seed=0)
        assert model.latent_shape == (16, 2, 2)
        x = RNG.random((3, 2, 15, 15), dtype=np.float32)
        assert model.encode(x, train=True).shape == (3, 16, 2, 2)

    def test_sae_branches_share_parameters(self, pair_set):
        model = SAEModel(seed=0)
        left = {k: id(v) for k, v in model.params().items()}
        # Training steps mutate in place, so identity persists by construction.
        cfg = TrainConfig(epochs=1, batch_size=4, seed=0)
        x1 = RNG.random((8, 2, 15, 15), dtype=np.float32)
        x2 = RNG.random((8, 2, 15, 15), dtype=np.float32)
        train(model, pair_set(x1, x2), cfg)
        assert {k: id(v) for k, v in model.params().items()} == left

    def test_sae_branches_identical_outputs(self):
        model = SAEModel(seed=3)
        x = RNG.random((2, 2, 15, 15), dtype=np.float32)
        z = model.encode(np.concatenate([x, x.copy()]))
        xhat = model.reconstruct(np.concatenate([x, x.copy()]))
        assert np.array_equal(xhat[:2], xhat[2:])
        assert np.array_equal(z[:2], z[2:])

    def test_untrained_zero_head_outputs_half(self):
        model = SAEModel(seed=0)
        head = model.decoder.layers[-2]  # final conv before sigmoid
        head.W = np.zeros_like(head.W)
        head.b = np.zeros_like(head.b)
        out = model.reconstruct(RNG.random((2, 2, 15, 15), dtype=np.float32))
        assert np.all(out == 0.5)

    def test_reconstruction_in_unit_interval(self):
        model = SAEModel(seed=1)
        out = model.reconstruct(RNG.random((4, 2, 15, 15), dtype=np.float32))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_wrong_input_shape_rejected(self):
        with pytest.raises(Exception, match="expected"):
            AEModel((56, 48), seed=0).forward(RNG.random((1, 2, 48, 56), dtype=np.float32), True)


class TestTraining:
    def test_smoke_loss_decreases(self):
        rng = np.random.default_rng(5)
        x = rng.random((8, 2, 24, 20), dtype=np.float32)
        cfg = TrainConfig(epochs=5, batch_size=4, seed=0)
        curve = train(AEModel((24, 20), seed=0), x, cfg)
        assert len(curve) == 5
        assert curve[-1].mean_loss < curve[0].mean_loss
        assert all(np.isfinite(s.mean_loss) for s in curve)

    def test_sae_smoke_loss_decreases(self, pair_set):
        rng = np.random.default_rng(6)
        x1 = rng.random((32, 2, 15, 15), dtype=np.float32)
        x2 = np.clip(x1 + rng.normal(0, 0.02, x1.shape).astype(np.float32), 0, 1)
        cfg = TrainConfig(epochs=5, batch_size=8, seed=0)
        curve = train(SAEModel(seed=0), pair_set(x1, x2), cfg)
        assert curve[-1].mean_loss < curve[0].mean_loss

    def test_batch_count_arithmetic(self):
        # 1640 slices in batches of 40: 41 updates per epoch.
        assert int(np.ceil(1640 / 40)) == 41

    def test_deterministic_retraining_bit_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        x = rng.random((6, 2, 16, 16), dtype=np.float32)
        cfg = TrainConfig(epochs=3, batch_size=2, seed=11)
        m1, m2 = AEModel((16, 16), seed=11), AEModel((16, 16), seed=11)
        train(m1, x, cfg)
        train(m2, x, cfg)
        save_model(m1, tmp_path / "a.anom")
        save_model(m2, tmp_path / "b.anom")
        assert (tmp_path / "a.anom").read_bytes() == (tmp_path / "b.anom").read_bytes()

    def test_empty_training_set_rejected(self):
        with pytest.raises(ModelError, match="empty ae training set"):
            train(AEModel((16, 16)), np.zeros((0, 2, 16, 16), np.float32), TrainConfig(1, 2))

    def test_divergence_reported_with_batch(self):
        x = np.full((4, 2, 16, 16), np.inf, dtype=np.float32)
        cfg = TrainConfig(epochs=1, batch_size=2, seed=0)
        with pytest.raises(Exception, match="epoch 1, batch 0"):
            train(AEModel((16, 16), seed=0), x, cfg)


class TestCheckpointKeys:
    """Checkpoint array names; --resume reads checkpoints written under them."""

    AE_PARAMS = [
        "enc.L0.conv.W", "enc.L1.batchnorm.gamma", "enc.L1.batchnorm.beta",
        "enc.L3.conv.W", "enc.L4.batchnorm.gamma", "enc.L4.batchnorm.beta",
        "enc.L6.conv.W", "enc.L7.batchnorm.gamma", "enc.L7.batchnorm.beta",
        "enc.L9.conv.W", "enc.L10.batchnorm.gamma", "enc.L10.batchnorm.beta",
        "enc.L12.conv.W", "enc.L13.batchnorm.gamma", "enc.L13.batchnorm.beta",
        "dec.L0.conv_transpose.W", "dec.L1.batchnorm.gamma", "dec.L1.batchnorm.beta",
        "dec.L3.conv_transpose.W", "dec.L4.batchnorm.gamma", "dec.L4.batchnorm.beta",
        "dec.L6.conv_transpose.W", "dec.L7.batchnorm.gamma", "dec.L7.batchnorm.beta",
        "dec.L9.conv_transpose.W", "dec.L10.batchnorm.gamma", "dec.L10.batchnorm.beta",
        "dec.L12.conv_transpose.W", "dec.L12.conv_transpose.b",
    ]
    AE_STATE = [
        "enc.L1.batchnorm.running_mean", "enc.L1.batchnorm.running_var",
        "enc.L1.batchnorm.batches_tracked",
        "enc.L4.batchnorm.running_mean", "enc.L4.batchnorm.running_var",
        "enc.L4.batchnorm.batches_tracked",
        "enc.L7.batchnorm.running_mean", "enc.L7.batchnorm.running_var",
        "enc.L7.batchnorm.batches_tracked",
        "enc.L10.batchnorm.running_mean", "enc.L10.batchnorm.running_var",
        "enc.L10.batchnorm.batches_tracked",
        "enc.L13.batchnorm.running_mean", "enc.L13.batchnorm.running_var",
        "enc.L13.batchnorm.batches_tracked",
        "dec.L1.batchnorm.running_mean", "dec.L1.batchnorm.running_var",
        "dec.L1.batchnorm.batches_tracked",
        "dec.L4.batchnorm.running_mean", "dec.L4.batchnorm.running_var",
        "dec.L4.batchnorm.batches_tracked",
        "dec.L7.batchnorm.running_mean", "dec.L7.batchnorm.running_var",
        "dec.L7.batchnorm.batches_tracked",
        "dec.L10.batchnorm.running_mean", "dec.L10.batchnorm.running_var",
        "dec.L10.batchnorm.batches_tracked",
    ]
    SAE_PARAMS = [
        "enc.L0.conv.W", "enc.L0.conv.b", "enc.L3.conv.W", "enc.L3.conv.b",
        "enc.L5.conv.W", "enc.L5.conv.b",
        "dec.L0.conv.W", "dec.L0.conv.b", "dec.L2.conv.W", "dec.L2.conv.b",
        "dec.L5.conv.W", "dec.L5.conv.b", "dec.L7.conv.W", "dec.L7.conv.b",
    ]

    def test_ae_keys(self):
        model = AEModel((16, 16))
        assert list(model.params()) == self.AE_PARAMS
        assert list(model.grads()) == self.AE_PARAMS
        assert list(model.state()) == self.AE_STATE

    def test_sae_keys(self):
        model = SAEModel()
        assert list(model.params()) == self.SAE_PARAMS
        assert list(model.grads()) == self.SAE_PARAMS
        assert list(model.state()) == []

    # sha256 over each parameter's name and bytes, in order, at seed 0: a
    # conv's bias and initialization follow from the spec after it.
    INITIAL_SHA256 = {
        "ae": "05d80e008f266a5875b02a459d946d7e30346744d319bcdaca6dc8a180bf3857",
        "sae": "597b0b4c65628bf2957d1e110da35de52b131c4c166154656df373c568fb44cf",
    }

    @pytest.mark.parametrize("kind", ["ae", "sae"])
    def test_initial_weights_pinned(self, kind):
        model = AEModel((56, 48), seed=0) if kind == "ae" else SAEModel(seed=0)
        assert list(model.params()) == (self.AE_PARAMS if kind == "ae" else self.SAE_PARAMS)
        digest = hashlib.sha256()
        for name, value in model.params().items():
            digest.update(name.encode())
            digest.update(value.tobytes())
        assert digest.hexdigest() == self.INITIAL_SHA256[kind]


class TestCheckpointRoundTrip:
    def test_ae_round_trip_preserves_outputs(self, tmp_path):
        rng = np.random.default_rng(8)
        x = rng.random((6, 2, 16, 16), dtype=np.float32)
        model = AEModel((16, 16), seed=2)
        train(model, x, TrainConfig(epochs=2, batch_size=3, seed=2))
        save_model(model, tmp_path / "m.anom")
        back = load_model(tmp_path / "m.anom", "ae")
        probe = rng.random((2, 2, 16, 16), dtype=np.float32)
        assert np.array_equal(model.reconstruct(probe), back.reconstruct(probe))
        assert back.checkpoint_id == model.checkpoint_id
        # 2 epochs x 2 batches of 3 through each of the nine batch norms.
        tracked = [v for k, v in back.state().items() if k.endswith("batches_tracked")]
        assert len(tracked) == 9
        assert all(v.dtype == np.int64 and v.tolist() == [4] for v in tracked)

    def test_set_params_round_trips_every_key(self):
        # Distinct values per key catch a key sent to the wrong layer, such
        # as enc.L1. against enc.L10. and enc.L13.
        model = AEModel((16, 16))
        rng = np.random.default_rng(12)
        values = {k: rng.normal(size=v.shape).astype(np.float32) for k, v in model.params().items()}
        model.set_params(values)
        got = model.params()
        assert list(got) == list(values)
        for k, v in values.items():
            assert np.array_equal(got[k], v), k

    def test_float64_copy_matches_float32_model(self):
        rng = np.random.default_rng(13)
        x = rng.random((6, 2, 16, 16), dtype=np.float32)
        model = AEModel((16, 16), seed=5)
        train(model, x, TrainConfig(epochs=1, batch_size=3, seed=5))
        copy = AEModel((16, 16), dtype=np.float64)
        copy.set_params(model.params())
        copy.set_state(model.state())
        assert all(v.dtype == np.float64 for v in copy.params().values())
        for k, v in copy.state().items():
            if k.endswith("batches_tracked"):
                assert v.dtype == np.int64 and v.tolist() == [2], k
            else:
                assert v.dtype == np.float64, k
        np.testing.assert_allclose(
            copy.reconstruct(x.astype(np.float64)), model.reconstruct(x), rtol=0, atol=1e-5
        )

    def test_sae_round_trip_preserves_outputs(self, tmp_path, pair_set):
        rng = np.random.default_rng(9)
        x1 = rng.random((8, 2, 15, 15), dtype=np.float32)
        model = SAEModel(seed=3)
        train(model, pair_set(x1, x1), TrainConfig(epochs=2, batch_size=4, seed=3))
        save_model(model, tmp_path / "m.anom")
        back = load_model(tmp_path / "m.anom", "sae")
        probe = rng.random((2, 2, 15, 15), dtype=np.float32)
        assert np.array_equal(model.reconstruct(probe), back.reconstruct(probe))

    def test_sae_checkpoint_matches_unfolded_stack(self, tmp_path):
        # Arrays under the pinned keys, dec.L5.conv.* being the conv after the
        # upsample, reconstruct as the upsample-then-conv stack they describe.
        rng = np.random.default_rng(14)
        arch = SAEModel().arch
        arrays = {
            k: (0.3 * rng.normal(size=v.shape)).astype(np.float32) for k, v in SAEModel().params().items()
        }
        save_checkpoint(tmp_path / "m.anom", "sae", arch, arrays)
        model = load_model(tmp_path / "m.anom", "sae")
        x = rng.random((4, 2, 15, 15), dtype=np.float32)
        y = model.encode(x)
        for i, spec in enumerate(sae_specs()[1]):
            if spec.kind == "upsample":  # Sequential builds no standalone upsample
                layer = Upsample2D(spec.factor)
            else:
                layer = Sequential([spec], rng).layers[0]
            layer.set_params({k: arrays[f"dec.L{i}.{spec.kind}.{k}"] for k in layer.param_names})
            y = layer.forward(y, False)
        np.testing.assert_allclose(model.reconstruct(x), y, rtol=0, atol=1e-5)

    def test_kind_mismatch(self, tmp_path, pair_set):
        rng = np.random.default_rng(10)
        x = rng.random((4, 2, 15, 15), dtype=np.float32)
        model = SAEModel(seed=0)
        train(model, pair_set(x, x), TrainConfig(epochs=1, batch_size=2, seed=0))
        save_model(model, tmp_path / "m.anom")
        with pytest.raises(Exception, match="expected an 'ae'"):
            load_model(tmp_path / "m.anom", "ae")


class TestDenseShortcuts:
    """The dense slice encoder and the center-only decoder must compute the
    same function as the per-patch forward pass."""

    @pytest.fixture(scope="class")
    def trained(self, pair_set):
        rng = np.random.default_rng(21)
        x1 = rng.random((256, 2, 15, 15), dtype=np.float32)
        x2 = np.clip(x1 + rng.normal(0, 0.05, x1.shape).astype(np.float32), 0, 1)
        model = SAEModel(seed=4)
        train(model, pair_set(x1, x2), TrainConfig(epochs=2, batch_size=64, seed=4))
        return model

    # Odd and even sizes: the pooling-phase crops must reach the last row and
    # column for origins of both parities.
    @pytest.mark.parametrize(
        "hw", [(40, 44), (15, 15), (16, 15), (15, 16), (17, 18), (41, 45)], ids=lambda hw: "%dx%d" % hw
    )
    def test_slice_center_latents_match_encode(self, trained, hw):
        rng = np.random.default_rng(22)
        image = rng.random((2, *hw), dtype=np.float32)
        ys, xs = np.meshgrid(np.arange(7, hw[0] - 7), np.arange(7, hw[1] - 7), indexing="ij")
        centers = np.stack([np.zeros(ys.size, int), ys.ravel(), xs.ravel()], axis=1)
        fast = trained.slice_center_latents(image[:, None], centers)
        patches = np.stack([image[:, y - 7 : y + 8, x - 7 : x + 8] for _, y, x in centers])
        ref = trained.encode(patches)
        assert np.array_equal(fast, ref)

    # Sparse centers: the encoded box then covers only part of the slice,
    # and its corner must keep the pooling phase of odd and even origins.
    @pytest.mark.parametrize(
        "centers",
        [[(20, 30)], [(8, 9)], [(7, 7), (8, 7), (7, 8), (9, 10)], [(7, 36), (32, 8)], [(33, 7), (32, 37)]],
        ids=["one", "one-odd", "corner-cluster", "far-apart", "far-apart-odd"],
    )
    def test_slice_center_latents_sparse_centers(self, trained, centers):
        image = np.random.default_rng(25).random((2, 41, 45), dtype=np.float32)
        fast = trained.slice_center_latents(image[:, None], np.array([(0, y, x) for y, x in centers]))
        patches = np.stack([image[:, y - 7 : y + 8, x - 7 : x + 8] for y, x in centers])
        assert np.array_equal(fast, trained.encode(patches))

    def test_slice_center_latents_no_centers(self, trained):
        z = trained.slice_center_latents(np.zeros((2, 1, 20, 20), np.float32), np.empty((0, 3), int))
        assert z.shape == (0, *trained.latent_shape) and z.dtype == np.float32

    # Many slices in one call: slices without centers between slices with
    # them, centers in any order, origins of both parities in different
    # slices (so one slab's box mixes them), and more slices than one slab.
    @staticmethod
    def stack_centers(rng, depth, hw, keep):
        """Every in-slice center of the slices in `keep`, thinned at random
        so slices differ in extent and parity, in shuffled order."""
        zs, ys, xs = np.meshgrid(keep, np.arange(7, hw[0] - 7), np.arange(7, hw[1] - 7), indexing="ij")
        centers = np.stack([zs.ravel(), ys.ravel(), xs.ravel()], axis=1)
        centers = centers[rng.random(len(centers)) < 0.3]
        return centers[rng.permutation(len(centers))]

    @pytest.mark.parametrize("depth", [3, 12, 2 * SAEModel.SLAB + 3])
    def test_slice_center_latents_many_slices(self, trained, depth):
        rng = np.random.default_rng(26 + depth)
        slices = rng.random((2, depth, 29, 31), dtype=np.float32)
        keep = np.flatnonzero(np.arange(depth) % 3 != 1)  # every third slice has no centers
        centers = self.stack_centers(rng, depth, (29, 31), keep)
        fast = trained.slice_center_latents(slices, centers)
        z, y, x = centers.T
        assert np.array_equal(fast, trained.encode(gather_patches(slices, z, y, x, 15)))

    def test_slice_center_latents_parity_per_slice(self, trained):
        # One center per slice: slice 0's origin is even in both axes,
        # slice 2's odd in both, slice 3's mixed; slice 1 has none.
        slices = np.random.default_rng(27).random((2, 4, 30, 30), dtype=np.float32)
        centers = np.array([(3, 8, 7), (0, 7, 9), (2, 8, 8), (0, 22, 21), (2, 20, 18)])
        fast = trained.slice_center_latents(slices, centers)
        z, y, x = centers.T
        assert np.array_equal(fast, trained.encode(gather_patches(slices, z, y, x, 15)))

    # float64 BLAS products round differently with the product's width (the
    # per-slice path at the parent commit already differed from encode by
    # up to 4.4e-16), so float64 latents agree to rounding; float32 ones,
    # the pipeline's, are pinned bit for bit above.
    def test_slice_center_latents_float64(self, trained):
        model = SAEModel(seed=4, dtype=np.float64)
        model.set_params(trained.params())
        rng = np.random.default_rng(28)
        slices = rng.random((2, 5, 26, 27), dtype=np.float32)
        centers = self.stack_centers(rng, 5, (26, 27), [0, 2, 3])
        fast = model.slice_center_latents(slices, centers)
        z, y, x = centers.T
        assert fast.dtype == np.float64
        ref = model.encode(gather_patches(slices, z, y, x, 15).astype(np.float64))
        np.testing.assert_allclose(fast, ref, rtol=0, atol=1e-12)

    # A center outside the stack is rejected before any encoding, naming
    # that center: a negative z would otherwise wrap to another slice, and a
    # patch past the border would fail deep inside a conv.
    @pytest.mark.parametrize(
        "bad, match",
        [((-1, 10, 10), r"\(-1, 10, 10\): z outside \[0, 2\)"),
         ((2, 10, 10), r"\(2, 10, 10\): z outside"),
         ((0, 3, 10), r"\(0, 3, 10\): its patch leaves the 20x20 slice"),
         ((1, 10, 13), r"\(1, 10, 13\): its patch leaves")],
        ids=["negative-z", "z-past-end", "patch-above", "patch-right"],
    )
    def test_slice_center_latents_out_of_range(self, trained, bad, match, monkeypatch):
        monkeypatch.setattr(trained.encoder.layers[0], "forward", lambda *a: pytest.fail("encoded before the check"))
        slices = np.zeros((2, 2, 20, 20), np.float32)
        with pytest.raises(ModelError, match=match):
            trained.slice_center_latents(slices, np.array([(0, 10, 10), bad]))

    def test_slice_center_latents_bad_shapes(self, trained):
        with pytest.raises(ModelError, match="slices"):
            trained.slice_center_latents(np.zeros((2, 20, 20), np.float32), np.array([(0, 10, 10)]))
        with pytest.raises(ModelError, match=r"\(n, 3\)"):
            trained.slice_center_latents(np.zeros((2, 1, 20, 20), np.float32), np.array([(10, 10)]))

    # The dense decoder sums each conv in another order than reconstruct(),
    # so float32 results agree to rounding (the bound is no looser than the
    # benchmark's fast-path check), and float64 ones to 1e-12.  1100 latents
    # take three blocks of the dense chain.
    @pytest.mark.parametrize("n", [1, 2, 3, 200, 1100])
    def test_decode_center_values_match_reconstruct(self, trained, n):
        rng = np.random.default_rng(23)
        patches = rng.random((n, 2, 15, 15), dtype=np.float32)
        z = trained.encode(patches)
        fast = trained.decode_center_values(z)
        ref = trained.reconstruct(patches)[:, :, 7, 7]
        assert fast.dtype == np.float32
        np.testing.assert_allclose(fast, ref, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3, 200])
    def test_decode_center_values_float64(self, trained, n):
        model = SAEModel(seed=4, dtype=np.float64)
        model.set_params(trained.params())
        rng = np.random.default_rng(24)
        z = model.encode(rng.random((n, 2, 15, 15)))
        assert z.dtype == np.float64
        fast = model.decode_center_values(z)
        ref = model.decoder.forward(z, False)[:, :, 7, 7]
        np.testing.assert_allclose(fast, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["ae", "sae"])
def test_backward_without_input_grad_keeps_parameter_grads(kind):
    # The models skip their first conv's input gradient; every parameter
    # gradient must be the full backward's, bit for bit.
    rng = np.random.default_rng(12)
    model = AEModel((21, 18), seed=3) if kind == "ae" else SAEModel(seed=3)
    x = rng.random((3, *model.input_shape), dtype=np.float32)
    grads = []
    for input_grad in (True, False):
        y = model.decoder.forward(model.encoder.forward(x, train=True), train=True)
        dx = model.encoder.backward(model.decoder.backward(np.ones_like(y)), input_grad)
        assert (dx is None) != input_grad
        grads.append({k: g.copy() for k, g in model.grads().items()})
    assert all(np.array_equal(grads[0][k], g) for k, g in grads[1].items())


class TestReconstructWrappers:
    def test_slice_wrapper_shape(self):
        rng = np.random.default_rng(11)
        x = rng.random((6, 2, 16, 16), dtype=np.float32)
        model = AEModel((16, 16), seed=1)
        train(model, x, TrainConfig(epochs=1, batch_size=3, seed=1))
        out = model.reconstruct(x[:1])
        assert out.shape == (1, 2, 16, 16)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_infer_before_training_rejected(self):
        model = AEModel((16, 16), seed=0)
        with pytest.raises(Exception, match="inference before"):
            model.reconstruct(np.zeros((1, 2, 16, 16), dtype=np.float32))

    def test_patch_wrapper_shape(self):
        model = SAEModel(seed=2)
        out = model.reconstruct(np.zeros((1, 2, 15, 15), dtype=np.float32))
        assert out.shape == (1, 2, 15, 15)


def pair_batch(n, seed, dtype=np.float32):
    """n similar pairs (x1, x2) of SAE patches."""
    rng = np.random.default_rng(seed)
    x1 = rng.random((n, 2, 15, 15))
    return x1.astype(dtype), np.clip(x1 + rng.normal(0, 0.05, x1.shape), 0, 1).astype(dtype)


def step_bytes(model, batch):
    """The loss and the gradient bytes of one SAE step."""
    loss, grads = model.loss_and_grads(batch)
    return loss, {k: g.tobytes() for k, g in grads.items()}


@pytest.fixture
def blas_threads():
    """Get/set of numpy's OpenBLAS thread count, restored after the test."""
    calls = models._openblas_threads()
    if calls is None:
        pytest.skip("numpy's OpenBLAS exports no thread control here")
    get, put = calls
    before = get()
    yield get, put
    put(before)


def _on_glibc():
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def _new_process_env() -> dict[str, str]:
    """The environment of a new interpreter that imports this anomvox."""
    src = str(Path(models.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _run_in_new_process(script: str) -> str:
    """The stdout of `script` run by a new interpreter that imports this
    anomvox; fails the test if the script fails."""
    env = _new_process_env()
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


def _fork_child_step(model, batch, expected, done):
    loss, grads = step_bytes(model, batch)
    done.put((loss, grads) == expected)


class TestShardedStep:
    """SAEModel.loss_and_grads runs the pair batch in SHARDS shards and
    combines them; outside train, all on this thread."""

    # The combined gradient against one shard of the whole batch.  Float32
    # GEMMs sum up to 2 x 225 pair terms in another grouping, which alone
    # moves an entry by several ulp of the array's largest entry (at most 9
    # seen), so float32 is held to 32 of those ulp; float64 to 1e-12.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [32, 33, 225])
    def test_combined_matches_one_shard(self, dtype, n, monkeypatch):
        batch = pair_batch(n, seed=n, dtype=dtype)
        model = SAEModel(seed=4, dtype=dtype)
        loss, grads = model.loss_and_grads(batch)
        grads = {k: g.copy() for k, g in grads.items()}
        monkeypatch.setattr(SAEModel, "SHARDS", 1)
        ref_loss, ref = model.loss_and_grads(batch)
        assert set(grads) == set(ref)
        if dtype == np.float64:
            assert loss == pytest.approx(ref_loss, rel=0, abs=1e-12)
            for k, g in ref.items():
                np.testing.assert_allclose(grads[k], g, rtol=0, atol=1e-12, err_msg=k)
        else:
            assert loss == pytest.approx(ref_loss, rel=1e-6)
            for k, g in ref.items():
                ulp = np.spacing(np.abs(g).max())
                assert np.abs(grads[k] - g).max() <= 32 * ulp, k

    # Below two shards of SHARD_PAIRS pairs a batch runs as one shard on the
    # calling thread, byte for byte the SHARDS = 1 step.
    @pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 225])
    def test_pair_counts(self, n, monkeypatch):
        batch = pair_batch(n, seed=100 + n)
        loss, grads = step_bytes(SAEModel(seed=5), batch)
        assert np.isfinite(loss)
        monkeypatch.setattr(SAEModel, "SHARDS", 1)
        ref = step_bytes(SAEModel(seed=5), batch)
        assert ((loss, grads) == ref) == (n < 2 * SAEModel.SHARD_PAIRS)

    # The step's worker threads end with the step: none outlives it.  A new
    # process, so that no earlier step's threads are counted before it.
    def test_no_thread_outlives_the_step(self):
        out = _run_in_new_process(
            "import threading, numpy as np\n"
            "from anomvox.models import SAEModel\n"
            "rng = np.random.default_rng(15)\n"
            "batch = tuple(rng.random((225, 2, 15, 15), dtype=np.float32) for _ in range(2))\n"
            "before = threading.active_count()\n"
            "SAEModel(seed=15).loss_and_grads(batch)\n"
            "print(before, threading.active_count())\n"
        )
        before, after = out.split()[-2:]
        assert after == before

    def test_independent_of_process_blas_threads(self, blas_threads):
        get, put = blas_threads
        batch = pair_batch(225, seed=7)
        steps = []
        for threads in (1, 2):
            put(threads)
            steps.append(step_bytes(SAEModel(seed=6), batch))
            assert get() == threads
        assert steps[0] == steps[1]

    def test_grads_hold_the_combined_step(self):
        model = SAEModel(seed=8)
        _, grads = model.loss_and_grads(pair_batch(225, seed=8))
        held = model.grads()
        assert held.keys() == grads.keys()
        assert all(np.array_equal(held[k], g) for k, g in grads.items())

    # The failing shard is picked by its first pair, which names it in
    # either process.  The step raises its error with its type and message,
    # in-line and through a worker, restores OpenBLAS's thread count, and
    # leaves the model and the worker's pipe fit for the next step (a stale
    # reply would be read as that step's worker shard).
    @pytest.mark.parametrize("failing", ["calling", "worker"])
    def test_shard_error_raised_here(self, failing, blas_threads, monkeypatch):
        get, put = blas_threads
        put(2)
        batch, other = pair_batch(64, seed=9), pair_batch(64, seed=19)
        poison = batch[0][0 if failing == "calling" else 32]
        original = models.sae_loss_grad

        def fail_on_one_shard(x1, *args):
            if np.array_equal(x1[0], poison):
                raise RuntimeError(f"{failing} shard failed")
            return original(x1, *args)

        monkeypatch.setattr(models, "sae_loss_grad", fail_on_one_shard)
        expected = step_bytes(SAEModel(seed=9), other)
        model = SAEModel(seed=9)
        with models._shard_worker(model):
            for _ in range(2):
                with pytest.raises(RuntimeError, match=f"^{failing} shard failed$"):
                    model.loss_and_grads(batch)
                assert get() == 2
                assert step_bytes(model, other) == expected
        with pytest.raises(RuntimeError, match=f"^{failing} shard failed$"):
            model.loss_and_grads(batch)
        assert get() == 2
        assert step_bytes(model, other) == expected

    # glibc's default malloc thresholds slide with the blocks freed, and a
    # 225-pair step then faulted 5,500 to 15,000 pages in again every step,
    # in a number that depended on what the process had freed before; so the
    # steps run in a new process.
    @pytest.mark.skipif(not _on_glibc(), reason="fixes glibc's malloc thresholds only")
    def test_steps_fault_in_next_to_no_pages(self):
        script = (
            "import resource, numpy as np\n"
            "from anomvox.models import SAEModel\n"
            "rng = np.random.default_rng(12)\n"
            "batch = tuple(rng.random((225, 2, 15, 15), dtype=np.float32) for _ in range(2))\n"
            "model = SAEModel(seed=12)\n"
            "for _ in range(3):\n"
            "    model.loss_and_grads(batch)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(3):\n"
            "    model.loss_and_grads(batch)\n"
            "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3)\n"
        )
        per_step = float(_run_in_new_process(script).split()[-1])
        assert per_step < 500, f"{per_step:.0f} minor faults per step"

    # A child forked after the parent's steps inherits none of their
    # threads; its step must start a worker of its own and match the
    # parent's bytes.
    def test_step_in_forked_child(self):
        model, batch = SAEModel(seed=11), pair_batch(64, seed=11)
        expected = step_bytes(model, batch)
        ctx = multiprocessing.get_context("fork")
        done = ctx.Queue()
        child = ctx.Process(target=_fork_child_step, args=(model, batch, expected, done))
        child.start()
        try:
            assert done.get(timeout=120) is True
        finally:
            child.join(timeout=30)
            if child.is_alive():
                child.kill()
        assert not child.is_alive() and child.exitcode == 0


def _train_counting_children(model, data, config, seen):
    """train(), recording before each step how many child processes are
    alive."""
    original = type(model).loss_and_grads

    def counted(self, batch):
        seen.append(len(multiprocessing.active_children()))
        return original(self, batch)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(type(model), "loss_and_grads", counted)
        return train(model, data, config)


class _Deadline(Exception):
    """Stands for perfbench's Deadline, which stops training from adam_step."""


class TestShardWorker:
    """Inside train, an SAE step runs its second shard in one worker process
    forked for the run, a copy of the model that is sent the parameters on
    every step.  It must give the in-line step's bytes, and it must not
    outlive the run or its process."""

    # The worker must step with the parameters it is sent, not those it was
    # forked with.  A model that has not stepped yet holds zero gradients.
    def test_worker_follows_set_params(self):
        batch = pair_batch(225, seed=13)
        model, other = SAEModel(seed=13), SAEModel(seed=14)
        params, grads = model.params(), model.grads()
        assert grads.keys() == params.keys()
        for k, p in params.items():
            assert grads[k].shape == p.shape and grads[k].dtype == p.dtype and not grads[k].any(), k
        with models._shard_worker(model):
            model.loss_and_grads(batch)
            model.set_params(other.params())
            assert step_bytes(model, batch) == step_bytes(other, batch)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_steps_match_inline(self, dtype):
        batch = pair_batch(64, seed=10, dtype=dtype)
        inline, forked = SAEModel(seed=10, dtype=dtype), SAEModel(seed=10, dtype=dtype)
        states = AdamState(), AdamState()
        with models._shard_worker(forked):
            assert len(multiprocessing.active_children()) == 1
            for _ in range(3):
                steps = []
                for model, state in zip((inline, forked), states):
                    steps.append(step_bytes(model, batch))
                    adam_step(model.params(), model.grads(), state)
                assert steps[0] == steps[1]
        assert multiprocessing.active_children() == []

    def test_train_matches_inline_loop(self, pair_set, monkeypatch):
        rng = np.random.default_rng(17)
        x1 = rng.random((100, 2, 15, 15), dtype=np.float32)
        x2 = np.clip(x1 + rng.normal(0, 0.05, x1.shape).astype(np.float32), 0, 1)
        cfg = TrainConfig(epochs=2, batch_size=40, seed=17)
        runs = []
        for in_line in (False, True):
            if in_line:
                monkeypatch.setattr(models, "_shard_worker", lambda model: contextlib.nullcontext())
            model, seen = SAEModel(seed=17), []
            curve = _train_counting_children(model, pair_set(x1, x2), cfg, seen)
            assert seen == [0 if in_line else 1] * 6
            runs.append((curve, {k: p.tobytes() for k, p in model.params().items()}))
        assert runs[0] == runs[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("ending", ["returns", "diverges", "adam-raises"])
    def test_no_worker_outlives_train(self, ending, pair_set, monkeypatch):
        x = np.random.default_rng(18).random((64, 2, 15, 15), dtype=np.float32)
        if ending == "diverges":
            x[:] = np.inf
        if ending == "adam-raises":
            original, calls = models.adam_step, []

            def adam_step_until_deadline(*args):
                original(*args)
                calls.append(args)
                if len(calls) == 2:
                    raise _Deadline

            monkeypatch.setattr(models, "adam_step", adam_step_until_deadline)
        seen = []
        model, data = SAEModel(seed=18), pair_set(x, x)
        if ending == "returns":
            _train_counting_children(model, data, TrainConfig(3, 32), seen)
        else:
            with pytest.raises(TrainingDivergedError if ending == "diverges" else _Deadline):
                _train_counting_children(model, data, TrainConfig(3, 32), seen)
        assert seen and set(seen) == {1}
        assert multiprocessing.active_children() == []

    # A new process: a dead worker that hung the step would hang the test.
    def test_killed_worker_raises(self):
        out = _run_in_new_process(
            "import multiprocessing, os, signal, numpy as np\n"
            "from anomvox import models\n"
            "rng = np.random.default_rng(19)\n"
            "batch = tuple(rng.random((64, 2, 15, 15), dtype=np.float32) for _ in range(2))\n"
            "model = models.SAEModel(seed=19)\n"
            "with models._shard_worker(model):\n"
            "    model.loss_and_grads(batch)\n"
            "    (worker,) = multiprocessing.active_children()\n"
            "    os.kill(worker.pid, signal.SIGKILL)\n"
            "    for _ in range(2):\n"
            "        try:\n"
            "            model.loss_and_grads(batch)\n"
            "        except RuntimeError as exc:\n"
            "            print('raised:', exc)\n"
            "print('children:', len(multiprocessing.active_children()))\n"
        )
        *raised, children = out.splitlines()
        assert len(raised) == 2 and children == "children: 0", out
        assert all(line.startswith("raised: SAE shard worker") and "exit code -9" in line for line in raised), out

    def test_killed_parent_leaves_no_worker(self):
        script = (
            "import multiprocessing, numpy as np\n"
            "from anomvox import models\n"
            "from anomvox.sampling import PairSet\n"
            "x = np.random.default_rng(20).random((64, 2, 15, 15), dtype=np.float32)\n"
            "i = np.arange(64)\n"
            "rows = np.column_stack([i, i, 0 * i, 7 + 0 * i, 7 + 0 * i])\n"
            "pairs = PairSet(volumes=list(x[:, :, None]), rows=rows, patch_size=15)\n"
            "original = models.adam_step\n"
            "def adam_step(*args):\n"
            "    print(*[p.pid for p in multiprocessing.active_children()], flush=True)\n"
            "    return original(*args)\n"
            "models.adam_step = adam_step\n"
            "models.train(models.SAEModel(seed=20), pairs, models.TrainConfig(10**6, 64))\n"
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", script], env=_new_process_env(), stdout=subprocess.PIPE, text=True
        )
        worker = None
        try:
            assert select.select([parent.stdout], [], [], 120)[0], "no training step within 120 s"
            (worker,) = map(int, parent.stdout.readline().split())
            assert _alive(worker)
            parent.send_signal(signal.SIGKILL)
            parent.wait(timeout=30)
            deadline = time.monotonic() + 10
            while _alive(worker) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _alive(worker)
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()
            if worker is not None and _alive(worker):
                os.kill(worker, signal.SIGKILL)


def _alive(pid: int) -> bool:
    """Whether process pid runs; a zombie, dead but not yet reaped by its
    new parent, does not."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
