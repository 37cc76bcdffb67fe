import numpy as np
import pytest

from anomvox.models import (
    AEModel,
    SAEModel,
    TrainConfig,
    ae_loss,
    ae_loss_grad,
    ae_train_defaults,
    load_model,
    sae_loss,
    sae_train_defaults,
    save_model,
    train_ae,
    train_sae,
)

RNG = np.random.default_rng(77)


def cosine64(z1, z2):
    """Cosine of two flattened vectors in float64, the oracle's definition."""
    z1 = np.asarray(z1, dtype=np.float64).reshape(-1)
    z2 = np.asarray(z2, dtype=np.float64).reshape(-1)
    return float(np.dot(z1, z2) / (np.linalg.norm(z1) * np.linalg.norm(z2)))


class TestDefaults:
    def test_published_hyperparameters(self):
        ae = ae_train_defaults()
        assert (ae.epochs, ae.batch_size, ae.learning_rate) == (160, 40, 1e-3)
        sae = sae_train_defaults()
        assert (sae.epochs, sae.batch_size, sae.learning_rate, sae.alpha) == (30, 225, 1e-3, 0.005)


class TestAeLoss:
    def test_zero_at_identity(self):
        x = RNG.random((3, 2, 4, 4), dtype=np.float32)
        assert ae_loss(x, x) == 0.0

    def test_two_unit_elements(self):
        x = np.array([1.0, 1.0], dtype=np.float32).reshape(1, 1, 1, 2)
        xhat = np.zeros_like(x)
        assert ae_loss(x, xhat) == 2.0

    def test_matches_elementwise_oracle(self):
        x = RNG.random((5, 2, 6, 7), dtype=np.float32)
        xhat = RNG.random((5, 2, 6, 7), dtype=np.float32)
        # brute-force accumulation, one element at a time
        total = 0.0
        for b in range(5):
            for v1, v2 in zip(x[b].reshape(-1), xhat[b].reshape(-1)):
                total += abs(float(v1) - float(v2))
        assert ae_loss(x, xhat) == pytest.approx(total / 5, rel=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(Exception, match="shape"):
            ae_loss(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2, 3)))


class TestSaeLoss:
    def test_perfect_reconstruction_identical_latents(self):
        x1 = RNG.random((4, 2, 15, 15), dtype=np.float32)
        x2 = RNG.random((4, 2, 15, 15), dtype=np.float32)
        z = RNG.normal(size=(4, 16, 2, 2)).astype(np.float32)
        val = sae_loss(x1, x2, x1, x2, z, z, alpha=0.005)
        assert val == pytest.approx(-0.005, abs=1e-7)

    def test_orthogonal_latents_zero_loss(self):
        x1 = RNG.random((1, 2, 15, 15), dtype=np.float32)
        z1 = np.zeros((1, 8), dtype=np.float32)
        z2 = np.zeros((1, 8), dtype=np.float32)
        z1[0, 0] = 1.0
        z2[0, 1] = 1.0
        assert sae_loss(x1, x1, x1, x1, z1, z2, alpha=0.005) == pytest.approx(0.0, abs=1e-9)

    def test_zero_latent_cosine_guarded(self):
        x1 = RNG.random((2, 2, 15, 15), dtype=np.float32)
        xh1 = RNG.random((2, 2, 15, 15), dtype=np.float32)
        z1 = RNG.normal(size=(2, 8)).astype(np.float32)
        z2 = z1.copy()
        z2[0] = 0.0
        with pytest.warns(RuntimeWarning, match="zero latent"):
            val = sae_loss(x1, x1, xh1, xh1, z1, z2, alpha=0.5)
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
        assert sae_loss(x1, x2, xh1, xh2, z1, z2, 0.005) == pytest.approx(expect, rel=1e-5)

    def test_alpha_derivative_is_minus_cosine(self):
        # dL/dalpha == -cos(z1, z2), probed by perturbing alpha.
        x1 = RNG.random((2, 2, 15, 15), dtype=np.float32)
        xh1 = RNG.random((2, 2, 15, 15), dtype=np.float32)
        z1 = RNG.normal(size=(2, 32))
        z2 = RNG.normal(size=(2, 32))
        eps = 1e-4
        la = sae_loss(x1, x1, xh1, xh1, z1, z2, 0.005 + eps)
        lb = sae_loss(x1, x1, xh1, xh1, z1, z2, 0.005 - eps)
        mean_cos = np.mean([cosine64(z1[b], z2[b]) for b in range(2)])
        assert (la - lb) / (2 * eps) == pytest.approx(-mean_cos, rel=1e-4)

    def test_alpha_monotone_when_aligned(self):
        x1 = RNG.random((2, 2, 15, 15), dtype=np.float32)
        z = RNG.normal(size=(2, 32))
        small = sae_loss(x1, x1, x1, x1, z, z + 0.01, 0.005)
        large = sae_loss(x1, x1, x1, x1, z, z + 0.01, 0.05)
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
        train_sae(pair_set(x1, x2), cfg, model=model)
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
        _, curve = train_ae(x, cfg)
        assert len(curve) == 5
        assert curve[-1].mean_loss < curve[0].mean_loss
        assert all(np.isfinite(s.mean_loss) for s in curve)

    def test_sae_smoke_loss_decreases(self, pair_set):
        rng = np.random.default_rng(6)
        x1 = rng.random((32, 2, 15, 15), dtype=np.float32)
        x2 = np.clip(x1 + rng.normal(0, 0.02, x1.shape).astype(np.float32), 0, 1)
        cfg = TrainConfig(epochs=5, batch_size=8, seed=0)
        _, curve = train_sae(pair_set(x1, x2), cfg)
        assert curve[-1].mean_loss < curve[0].mean_loss

    def test_batch_count_arithmetic(self):
        # 1640 slices in batches of 40: 41 updates per epoch.
        assert int(np.ceil(1640 / 40)) == 41

    def test_deterministic_retraining_bit_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        x = rng.random((6, 2, 16, 16), dtype=np.float32)
        cfg = TrainConfig(epochs=3, batch_size=2, seed=11)
        m1, _ = train_ae(x, cfg)
        m2, _ = train_ae(x, cfg)
        save_model(m1, tmp_path / "a.anom")
        save_model(m2, tmp_path / "b.anom")
        assert (tmp_path / "a.anom").read_bytes() == (tmp_path / "b.anom").read_bytes()

    def test_divergence_reported_with_batch(self):
        x = np.full((4, 2, 16, 16), np.inf, dtype=np.float32)
        cfg = TrainConfig(epochs=1, batch_size=2, seed=0)
        with pytest.raises(Exception, match="epoch 1, batch 0"):
            train_ae(x, cfg)


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


class TestCheckpointRoundTrip:
    def test_ae_round_trip_preserves_outputs(self, tmp_path):
        rng = np.random.default_rng(8)
        x = rng.random((6, 2, 16, 16), dtype=np.float32)
        model, _ = train_ae(x, TrainConfig(epochs=2, batch_size=3, seed=2))
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
        model, _ = train_ae(x, TrainConfig(epochs=1, batch_size=3, seed=5))
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
        model, _ = train_sae(pair_set(x1, x1), TrainConfig(epochs=2, batch_size=4, seed=3))
        save_model(model, tmp_path / "m.anom")
        back = load_model(tmp_path / "m.anom", "sae")
        probe = rng.random((2, 2, 15, 15), dtype=np.float32)
        assert np.array_equal(model.reconstruct(probe), back.reconstruct(probe))

    def test_kind_mismatch(self, tmp_path, pair_set):
        rng = np.random.default_rng(10)
        x = rng.random((4, 2, 15, 15), dtype=np.float32)
        model, _ = train_sae(pair_set(x, x), TrainConfig(epochs=1, batch_size=2, seed=0))
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
        model, _ = train_sae(pair_set(x1, x2), TrainConfig(epochs=2, batch_size=64, seed=4))
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
        centers = np.stack([ys.ravel(), xs.ravel()], axis=1)
        fast = trained.slice_center_latents(image, centers)
        patches = np.stack([image[:, y - 7 : y + 8, x - 7 : x + 8] for y, x in centers])
        ref = trained.encode(patches)
        assert np.array_equal(fast, ref)

    # A single latent makes the last conv a one-column product, which BLAS
    # may round differently from the many-column product of reconstruct().
    @pytest.mark.parametrize("n", [1, 2, 3, 200])
    def test_decode_center_values_match_reconstruct(self, trained, n):
        rng = np.random.default_rng(23)
        patches = rng.random((n, 2, 15, 15), dtype=np.float32)
        z = trained.encode(patches)
        fast = trained.decode_center_values(z)
        ref = trained.reconstruct(patches)[:, :, 7, 7]
        if n == 1:
            np.testing.assert_array_max_ulp(fast, ref, maxulp=4)
        else:
            assert np.array_equal(fast, ref)


class TestReconstructWrappers:
    def test_slice_wrapper_shape(self):
        rng = np.random.default_rng(11)
        x = rng.random((6, 2, 16, 16), dtype=np.float32)
        model, _ = train_ae(x, TrainConfig(epochs=1, batch_size=3, seed=1))
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
