import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomvox.anomaly import (
    AbnormalityThreshold,
    AnomalyError,
    ErrorMap,
    abnormality_threshold,
    binarize,
    error_volume_ae,
    error_volume_sae,
    interpolated_quantile,
    joint_error,
    load_error_map,
    load_threshold,
    save_error_map,
    save_threshold,
)
from anomvox.phantom import PhantomSpec, synth_cohort
from anomvox.sampling import eligible_patch_centers
from anomvox.volume import BrainMask, Volume, compute_brain_mask


class PerfectSliceModel:
    """Stub reconstructor for a fixed in-plane size: output equals input."""

    def __init__(self, hw):
        self.input_hw = hw
        self.provenance = "ae:stub"

    def reconstruct(self, batch):
        return batch.copy()


class BiasedSliceModel(PerfectSliceModel):
    def __init__(self, hw, offset):
        super().__init__(hw)
        self.offset = offset

    def reconstruct(self, batch):
        return np.clip(batch + self.offset, 0.0, 1.0)


class PerfectPatchModel:
    """Stub patch reconstructor: output equals input.  Its center-mode
    "latent" of a patch is the patch's center pixel."""

    patch_size = 15
    provenance = "sae:stub"

    def reconstruct(self, batch):
        return batch.copy()

    def slice_center_latents(self, slices, centers):
        return slices[:, centers[:, 0], centers[:, 1], centers[:, 2]].T

    def decode_center_values(self, z):
        return z.copy()


class BiasedPatchModel(PerfectPatchModel):
    def __init__(self, offset):
        self.offset = offset

    def reconstruct(self, batch):
        return batch + self.offset

    def decode_center_values(self, z):
        return z + self.offset


class RippledPatchModel(PerfectPatchModel):
    """Relative errors that vary with the position in the patch, so
    overlapping tiles carry different errors at a shared voxel."""

    def reconstruct(self, batch):
        ripple = np.sin(np.arange(batch[0].size)).reshape(batch.shape[1:])
        return batch * (1 + 0.5 * ripple).astype(np.float32)


def center_map_loop(model, volume, mask):
    """Reference center map: each eligible voxel's own patch, reconstructed
    whole by the model, read at its center pixel."""
    p = model.patch_size
    half = p // 2
    eligible = eligible_patch_centers(mask, p)
    data = np.zeros(volume.dims, dtype=np.float32)
    for z, y, x in np.argwhere(eligible):
        patch = volume.data[:, z, y - half : y + half + 1, x - half : x + half + 1]
        recon = model.reconstruct(patch[None])[0, :, half, half]
        data[z, y, x] = joint_error(patch[:, half, half], recon)
    return data, eligible


def overlap_mean_loop(model, volume, mask):
    """Reference overlap-mean map: a Python loop adding each tile's joint
    error into its window, tile after tile."""
    p = model.patch_size
    half = p // 2
    eligible = eligible_patch_centers(mask, p)
    acc = np.zeros(volume.dims, dtype=np.float64)
    cnt = np.zeros(volume.dims, dtype=np.int32)
    for z in range(volume.dims[0]):
        for y, x in np.argwhere(eligible[z]):
            window = (z, slice(y - half, y + half + 1), slice(x - half, x + half + 1))
            patch = volume.data[:, z, window[1], window[2]]
            recon = model.reconstruct(patch[None])[0]
            acc[window] += np.sqrt(np.square(patch - recon).sum(axis=0))
            cnt[window] += 1
    coverage = (cnt > 0) & mask.mask
    np.divide(acc, cnt, out=acc, where=cnt > 0)
    data = acc.astype(np.float32)
    data *= coverage
    return data, coverage


@pytest.fixture(scope="module")
def phantom():
    spec = PhantomSpec(n_controls=1, n_patients=0, dims=(20, 34, 34), lesion_radius=2.0)
    vols, _, _ = synth_cohort(spec, seed=3)
    vol = vols[0]
    return vol, compute_brain_mask(vol)


class TestJointError:
    def test_pythagorean(self):
        x = np.array([3.0, 4.0]).reshape(2, 1)
        assert joint_error(x, np.zeros_like(x))[0] == pytest.approx(5.0)

    def test_zero_at_identity(self):
        x = np.random.default_rng(0).random((2, 4, 4)).astype(np.float32)
        assert not joint_error(x, x).any()

    def test_single_channel_is_absolute_difference(self):
        x = np.array([[0.2, 0.9]], dtype=np.float32)
        xhat = np.array([[0.5, 0.1]], dtype=np.float32)
        assert joint_error(x, xhat) == pytest.approx([0.3, 0.8], abs=1e-7)

    def test_channel_mismatch(self):
        with pytest.raises(AnomalyError):
            joint_error(np.zeros((2, 3)), np.zeros((3, 3)))


class TestErrorVolumeAE:
    def test_perfect_model_zero_map(self, phantom):
        vol, mask = phantom
        emap = error_volume_ae(PerfectSliceModel(vol.dims[1:]), vol, mask, band_count=10)
        assert not emap.data.any()
        assert emap.coverage.sum() > 0

    def test_coverage_is_band_intersect_mask(self, phantom):
        vol, mask = phantom
        band_count = 12
        emap = error_volume_ae(PerfectSliceModel(vol.dims[1:]), vol, mask, band_count=band_count)
        start = (vol.dims[0] - band_count) // 2
        expected = np.zeros(vol.dims, dtype=bool)
        expected[start : start + band_count] = mask.mask[start : start + band_count]
        assert np.array_equal(emap.coverage, expected)
        assert emap.coverage.sum() == mask.mask[start : start + band_count].sum()

    def test_known_offset_error(self, phantom):
        vol, mask = phantom
        # A constant +0.01 shift on both channels gives sqrt(2)*0.01 wherever
        # clipping does not bite (interior values are below 0.99).
        emap = error_volume_ae(BiasedSliceModel(vol.dims[1:], 0.01), vol, mask, band_count=8)
        vals = emap.data[emap.coverage]
        assert np.median(vals) == pytest.approx(math.sqrt(2) * 0.01, rel=1e-3)

    def test_dims_mismatch_rejected(self, phantom):
        vol, mask = phantom
        with pytest.raises(AnomalyError, match="checkpoint"):
            error_volume_ae(PerfectSliceModel((99, 99)), vol, mask, band_count=40)


class TestErrorVolumeSAE:
    def test_perfect_model_zero_map_both_modes(self, phantom):
        vol, mask = phantom
        for mode in ("center", "overlap-mean"):
            emap = error_volume_sae(PerfectPatchModel(), vol, mask, aggregate=mode)
            assert not emap.data.any()
            assert emap.coverage.any()

    def test_center_mode_known_offset(self, phantom):
        vol, mask = phantom
        emap = error_volume_sae(BiasedPatchModel(0.02), vol, mask, aggregate="center")
        vals = emap.data[emap.coverage]
        assert vals.min() == pytest.approx(math.sqrt(2) * 0.02, rel=1e-3)

    def test_modes_agree_on_disjoint_tiling(self):
        # Three 15x15 blocks one voxel apart admit one patch center each, so
        # their patches tile the mask disjointly: the overlap mean at a voxel
        # is the error of the one tile that covers it, and at a tile's
        # center it equals the center mode's value.
        data = np.zeros((2, 2, 17, 49), dtype=np.float32)
        rng = np.random.default_rng(4)
        for x0 in (1, 17, 33):
            data[:, :, 1:16, x0 : x0 + 15] = rng.uniform(0.25, 0.75, (2, 2, 15, 15))
        vol = Volume("s", (1.0, 1.0, 1.0), data)
        mask = compute_brain_mask(vol)
        ripple = RippledPatchModel()
        overlap = error_volume_sae(ripple, vol, mask, aggregate="overlap-mean")
        assert np.array_equal(overlap.coverage, mask.mask)
        for z in range(2):
            for x0 in (1, 17, 33):
                patch = data[:, z, 1:16, x0 : x0 + 15]
                tile = joint_error(patch, ripple.reconstruct(patch[None])[0])
                assert np.array_equal(overlap.data[z, 1:16, x0 : x0 + 15], tile)
        model = BiasedPatchModel(0.02)
        center = error_volume_sae(model, vol, mask, aggregate="center")
        overlap = error_volume_sae(model, vol, mask, aggregate="overlap-mean")
        assert center.coverage.sum() == 6
        assert center.data[center.coverage] == pytest.approx(overlap.data[center.coverage], rel=1e-6)
        assert overlap.data[overlap.coverage] == pytest.approx(np.sqrt(2) * 0.02, rel=1e-3)

    def test_single_center_modes_agree(self):
        data = np.zeros((2, 3, 17, 17), dtype=np.float32)
        data[:, :, 1:16, 1:16] = 0.5
        from anomvox.volume import Volume

        vol = Volume("s", (1.0, 1.0, 1.0), data)
        mask = compute_brain_mask(vol)
        model = BiasedPatchModel(0.03)
        center = error_volume_sae(model, vol, mask, aggregate="center")
        overlap = error_volume_sae(model, vol, mask, aggregate="overlap-mean")
        pos = np.argwhere(center.coverage)
        for z, y, x in pos:
            if overlap.coverage[z, y, x]:
                assert center.data[z, y, x] == pytest.approx(overlap.data[z, y, x], rel=1e-6)

    def test_empty_eligible_region(self):
        from anomvox.volume import Volume

        data = np.zeros((2, 2, 10, 10), dtype=np.float32)
        data[:, :, 4:6, 4:6] = 0.4
        vol = Volume("s", (1.0, 1.0, 1.0), data)
        with pytest.raises(AnomalyError, match="patch"):
            error_volume_sae(PerfectPatchModel(), vol, compute_brain_mask(vol))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("scale", [1.0, 1e-9])
    def test_overlap_mean_matches_tile_loop(self, seed, scale):
        # Random volume in a random elliptic mask; every voxel must sum its
        # covering tiles in the same order as the loop, so the bytes agree.
        rng = np.random.default_rng(seed)
        dims = (4, int(rng.integers(30, 40)), int(rng.integers(30, 40)))
        data = (scale * rng.random((2, *dims))).astype(np.float32)
        yy, xx = np.mgrid[: dims[1], : dims[2]]
        cy, cx = dims[1] / 2 + rng.uniform(-2, 2), dims[2] / 2 + rng.uniform(-2, 2)
        ry, rx = rng.uniform(11, dims[1] / 2, size=2)
        mask = np.broadcast_to(((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1, dims).copy()
        mask[0] = False
        vol, brain = Volume("s", (1.0, 1.0, 1.0), data), BrainMask(mask=mask)
        model = RippledPatchModel()
        emap = error_volume_sae(model, vol, brain, aggregate="overlap-mean")
        data_ref, coverage_ref = overlap_mean_loop(model, vol, brain)
        assert emap.coverage.any()
        assert np.array_equal(emap.coverage, coverage_ref)
        assert emap.data.tobytes() == data_ref.tobytes()

    def test_dense_center_path_matches_per_patch_path(self, phantom, pair_set):
        from anomvox.models import SAEModel, TrainConfig, train

        vol, mask = phantom
        rng = np.random.default_rng(31)
        x1 = rng.random((128, 2, 15, 15), dtype=np.float32)
        model = SAEModel(seed=0)
        train(model, pair_set(x1, x1), TrainConfig(epochs=1, batch_size=32, seed=0))

        fast = error_volume_sae(model, vol, mask)
        data_ref, coverage_ref = center_map_loop(model, vol, mask)
        assert np.array_equal(fast.coverage, coverage_ref)
        # The dense center decoder sums in another order: equal to rounding.
        np.testing.assert_allclose(fast.data, data_ref, rtol=0, atol=1e-6)

    def test_dense_center_path_memory(self):
        """The center path decodes a whole subject in one call, but applies
        the dense chain in row blocks: the traced allocation peak of a quick
        subject (48, 56, 48) stays near its 3.7 MB of latents.  Decoding all
        14,520 latents at once peaks at about 33 MB."""
        from anomvox.models import SAEModel

        spec = PhantomSpec(n_controls=1, n_patients=0, dims=(48, 56, 48))
        vol = synth_cohort(spec, seed=5)[0][0]
        mask = compute_brain_mask(vol)
        model = SAEModel(seed=0)
        tracemalloc.start()
        try:
            emap = error_volume_sae(model, vol, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emap.coverage.sum() > 10_000
        assert peak <= 16 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def sort_oracle_quantile(values, q):
    """Independent linear-interpolation quantile: pure-Python sort and lerp."""
    v = sorted(float(x) for x in values)
    n = len(v)
    pos = q * (n - 1)
    j = math.floor(pos)
    g = pos - j
    if j + 1 >= n:
        return v[-1]
    return v[j] + g * (v[j + 1] - v[j])


class TestQuantile:
    def test_worked_example(self):
        values = np.arange(1.0, 101.0)
        assert interpolated_quantile(values, 0.98) == pytest.approx(98.02)

    def test_q_one_rejected(self):
        with pytest.raises(AnomalyError):
            interpolated_quantile(np.arange(10.0), 1.0)

    def test_all_equal_pool(self):
        values = np.full(50, 3.25)
        t = interpolated_quantile(values, 0.98)
        assert t == 3.25
        assert not (values > t).any()

    def test_matches_sort_oracle_exactly(self):
        rng = np.random.default_rng(123)
        values = rng.exponential(size=100_000).astype(np.float32)
        for q in (0.5, 0.9, 0.98, 0.999):
            assert interpolated_quantile(values, q) == sort_oracle_quantile(values, q)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(0, 1e6, allow_nan=False, width=32), min_size=1, max_size=200),
        st.floats(0.01, 0.99),
    )
    def test_oracle_property(self, values, q):
        assert interpolated_quantile(np.array(values), q) == pytest.approx(
            sort_oracle_quantile(values, q), rel=1e-12, abs=1e-12
        )


def toy_map(data, coverage=None, sid="s"):
    data = np.asarray(data, dtype=np.float32)
    cov = np.ones_like(data, dtype=bool) if coverage is None else coverage
    return ErrorMap(subject_id=sid, data=data * cov, coverage=cov, provenance="ae:test")


class TestThresholdAndBinarize:
    def test_pooled_abnormal_fraction_near_two_percent(self):
        rng = np.random.default_rng(5)
        maps = [toy_map(rng.exponential(size=(10, 20, 20)).astype(np.float32)) for _ in range(5)]
        t = abnormality_threshold(maps, q=0.98)
        pooled = np.concatenate([m.data[m.coverage] for m in maps])
        frac = float((pooled > t.value).mean())
        assert frac == pytest.approx(0.02, abs=0.002)
        assert t.pool_size == pooled.size

    def test_empty_pool_rejected(self):
        with pytest.raises(AnomalyError):
            abnormality_threshold([], q=0.98)

    def test_binarize_above_max_is_empty(self):
        emap = toy_map(np.random.default_rng(0).random((4, 5, 5)))
        t = AbnormalityThreshold(q=0.5, value=2.0, source="x", pool_size=1)
        assert not binarize(emap, t).abnormal.any()

    def test_binarize_below_min_marks_all_covered(self):
        cov = np.zeros((4, 5, 5), dtype=bool)
        cov[1:3, 1:4, 1:4] = True
        emap = toy_map(np.random.default_rng(1).random((4, 5, 5)) + 0.5, coverage=cov)
        t = AbnormalityThreshold(q=0.5, value=0.0, source="x", pool_size=1)
        bmap = binarize(emap, t)
        assert np.array_equal(bmap.abnormal, cov)

    def test_strict_inequality_ties_normal(self):
        emap = toy_map(np.full((2, 2, 2), 0.7))
        t = AbnormalityThreshold(q=0.5, value=0.7, source="x", pool_size=1)
        assert not binarize(emap, t).abnormal.any()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_monotone_in_threshold(self, seed):
        rng = np.random.default_rng(seed)
        emap = toy_map(rng.random((3, 6, 6)))
        counts = []
        for value in np.linspace(0, 1, 7):
            t = AbnormalityThreshold(q=0.5, value=float(value), source="x", pool_size=1)
            counts.append(int(binarize(emap, t).abnormal.sum()))
        assert counts == sorted(counts, reverse=True)

    def test_scale_consistency(self):
        rng = np.random.default_rng(9)
        base = rng.random((3, 6, 6)).astype(np.float32)
        emap = toy_map(base)
        scaled = toy_map(base * 3.0)
        t = AbnormalityThreshold(q=0.5, value=0.4, source="x", pool_size=1)
        t3 = AbnormalityThreshold(q=0.5, value=0.4 * 3.0, source="x", pool_size=1)
        assert np.array_equal(binarize(emap, t).abnormal, binarize(scaled, t3).abnormal)


class TestPersistence:
    def test_error_map_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        cov = rng.random((4, 6, 6)) > 0.4
        emap = toy_map(rng.random((4, 6, 6)).astype(np.float32), coverage=cov)
        save_error_map(emap, tmp_path / "e.mvol")
        back = load_error_map(tmp_path / "e.mvol")
        assert np.array_equal(back.coverage, emap.coverage)
        assert np.array_equal(back.data, emap.data)
        assert back.provenance == emap.provenance

    def test_threshold_round_trip(self, tmp_path):
        t = AbnormalityThreshold(q=0.98, value=0.123, source="ae:abc|controls=5", pool_size=999)
        save_threshold(t, tmp_path / "t.json")
        assert load_threshold(tmp_path / "t.json") == t
