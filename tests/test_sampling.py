import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import binary_erosion

from anomvox.phantom import PhantomSpec, synth_cohort
from anomvox.sampling import (
    BalanceError,
    SamplingError,
    bootstrap_split,
    build_similar_pairs,
    eligible_patch_centers,
    extract_axial_slices,
    extract_patches,
    gather_patches,
    slice_band,
)
from anomvox.volume import BrainMask, SubjectMeta, Volume, compute_brain_mask


def make_volume(data, subject_id="s0"):
    return Volume(subject_id=subject_id, voxel_size_mm=(1.5, 1.5, 1.5), data=data)


def make_phantoms(n):
    spec = PhantomSpec(n_controls=n, n_patients=0, dims=(20, 32, 32), lesion_radius=2.0)
    vols, _, _ = synth_cohort(spec, seed=5)
    return vols


@pytest.fixture(scope="module")
def phantom_pair():
    return make_phantoms(2)


class TestSliceBand:
    def test_canonical_band(self):
        assert list(slice_band(121, 40)) == list(range(40, 80))

    def test_full_depth_identity(self):
        assert list(slice_band(7, 7)) == list(range(7))

    def test_too_deep_rejected(self):
        with pytest.raises(SamplingError):
            slice_band(10, 11)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 200), st.data())
    def test_band_centered_within_one(self, depth, data):
        count = data.draw(st.integers(1, depth))
        band = slice_band(depth, count)
        lead = band.start
        trail = depth - band.stop
        assert abs(lead - trail) <= 1
        assert len(band) == count

    def test_dataset_arithmetic_matches_published_sizes(self):
        # 41 training subjects x 40 axial slices and 40 x 15000 patches.
        assert 41 * 40 == 1640
        assert 40 * 15_000 == 600_000


class TestExtractSlices:
    def test_slices_are_views_of_volume(self, phantom_pair):
        vol = phantom_pair[0]
        slices = extract_axial_slices(vol, count=8)
        assert slices.shape == (8, 2, 32, 32)
        assert np.shares_memory(slices, vol.data)
        for i, z in enumerate(slice_band(vol.dims[0], 8)):
            assert np.array_equal(slices[i], vol.data[:, z])


class TestExtractPatches:
    def test_single_eligible_center(self):
        data = np.zeros((2, 3, 17, 17), dtype=np.float32)
        data[:, :, 1:16, 1:16] = 0.5  # 15x15 block in-plane
        mask = BrainMask(mask=(data > 0).any(axis=0))
        vol = make_volume(data)
        centers = extract_patches(vol, mask, count=1, patch_size=15, seed=0)
        assert centers.shape == (1, 3)
        assert tuple(centers[0, 1:]) == (8, 8)

    def test_no_eligible_center(self):
        data = np.zeros((2, 2, 8, 8), dtype=np.float32)
        data[:, :, 2:5, 2:5] = 0.5
        vol = make_volume(data)
        with pytest.raises(SamplingError, match="eligible"):
            extract_patches(vol, compute_brain_mask(vol), count=1, patch_size=15)

    def test_patch_pixels_match_recorded_center(self, phantom_pair):
        vol = phantom_pair[0]
        mask = compute_brain_mask(vol)
        centers = extract_patches(vol, mask, count=50, patch_size=15, seed=3)
        z, y, x = centers.T
        patches = gather_patches(vol.data, z, y, x, 15)
        assert patches.shape == (50, 2, 15, 15)
        for patch, (z, y, x) in zip(patches, centers):
            assert np.array_equal(patch, vol.data[:, z, y - 7 : y + 8, x - 7 : x + 8])

    def test_requested_count_honored(self, phantom_pair):
        vol = phantom_pair[0]
        mask = compute_brain_mask(vol)
        assert len(extract_patches(vol, mask, count=200, patch_size=15, seed=0)) == 200

    def test_deterministic(self, phantom_pair):
        vol = phantom_pair[0]
        mask = compute_brain_mask(vol)
        a = extract_patches(vol, mask, count=20, patch_size=15, seed=9)
        b = extract_patches(vol, mask, count=20, patch_size=15, seed=9)
        assert np.array_equal(a, b)

    def test_centers_inside_eroded_mask(self, phantom_pair):
        vol = phantom_pair[0]
        mask = compute_brain_mask(vol)
        eligible = eligible_patch_centers(mask, 15)
        assert eligible[tuple(extract_patches(vol, mask, count=100, patch_size=15, seed=1).T)].all()


def narrow_mask():
    """A mask 14 voxels wide, too narrow for any 15x15 patch."""
    narrow = np.zeros((2, 30, 30), bool)
    narrow[:, 3:27, 8:22] = True
    return narrow


def erosion_masks():
    """Masks for the erosion check, as (id, bool array) pairs: masks that
    touch the volume border, an all-true one, one narrower than a 15-voxel
    patch, seeded random ones and a quick-profile phantom's brain mask."""
    border = np.zeros((3, 20, 24), bool)
    border[:, :12, 5:] = True
    border[1, 15:, :] = True
    masks = [("border", border), ("all-true", np.ones((2, 17, 19), bool)), ("narrow", narrow_mask())]
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        masks.append((f"random-{seed}", rng.random((4, 25, 23)) < 0.9))
    spec = PhantomSpec(n_controls=1, n_patients=0, dims=(48, 56, 48))
    masks.append(("phantom", compute_brain_mask(synth_cohort(spec, seed=3)[0][0]).mask))
    return masks


class TestEligibleCenters:
    @pytest.mark.parametrize("p", [1, 3, 15])
    @pytest.mark.parametrize("mask", erosion_masks(), ids=lambda m: m[0])
    def test_equals_box_erosion(self, mask, p):
        _, m = mask
        eligible = eligible_patch_centers(BrainMask(mask=m), p)
        assert eligible.dtype == bool
        assert np.array_equal(eligible, binary_erosion(m, np.ones((1, p, p), bool)))

    def test_narrow_mask_has_no_center(self):
        assert not eligible_patch_centers(BrainMask(mask=narrow_mask()), 15).any()

    def test_even_patch_rejected(self):
        with pytest.raises(SamplingError, match="odd"):
            eligible_patch_centers(BrainMask(mask=np.ones((1, 5, 5), bool)), 4)


def sampled_pairs(vols, count, seed):
    """Pairs from `count` centers per subject, all drawn in the first
    subject's mask."""
    mask = compute_brain_mask(vols[0])
    centers = {v.subject_id: extract_patches(v, mask, count=count, patch_size=15, seed=i)
               for i, v in enumerate(vols)}
    return build_similar_pairs(centers, {v.subject_id: v for v in vols}, patch_size=15, seed=seed)


class TestSimilarPairs:
    # sha256 of the little-endian int64 rows (subject, partner, z, y, x) of
    # sampled_pairs(make_phantoms(n), 30, seed=4), taken from the centers and
    # partner ids of the per-patch PatchPair objects the pair sets replaced.
    ROW_DIGESTS = {
        2: "7c3ad377261abf7da79cfdaef131b769b80a46cdcc9dc52f225a9f1d3006410b",
        3: "ccd5c94317a3f0beebb2b4026f6a7d108e10e852d53d6a8e6f62b013a689788f",
    }

    @pytest.mark.parametrize("n", sorted(ROW_DIGESTS))
    def test_pair_stream_pinned(self, n):
        pairs = sampled_pairs(make_phantoms(n), count=30, seed=4)
        assert pairs.rows.shape == (30 * n, 5)
        digest = hashlib.sha256(pairs.rows.astype("<i8").tobytes()).hexdigest()
        assert digest == self.ROW_DIGESTS[n]

    def test_two_subjects_shared_center(self, phantom_pair):
        va, vb = phantom_pair
        mask = compute_brain_mask(va)
        centers = extract_patches(va, mask, count=1, patch_size=15, seed=0)
        pairs = build_similar_pairs(
            {va.subject_id: centers}, {va.subject_id: va, vb.subject_id: vb}, patch_size=15, seed=0
        )
        assert pairs.rows.tolist() == [[0, 1, *centers[0]]]

    def test_invariants_on_all_pairs(self, phantom_pair):
        pairs = sampled_pairs(phantom_pair, count=30, seed=4)
        assert len(pairs) == 60
        assert (pairs.rows[:, 0] != pairs.rows[:, 1]).all()

    def test_gathered_patches_match_volumes(self):
        vols = sorted(make_phantoms(3), key=lambda v: v.subject_id)  # row index order
        pairs = sampled_pairs(vols, count=20, seed=6)
        idx = np.random.default_rng(0).permutation(len(pairs))  # a shuffled batch
        left, right = pairs[idx]
        assert left.shape == right.shape == (60, 2, 15, 15)
        for i, (subject, partner, z, y, x) in enumerate(pairs.rows[idx]):
            window = (slice(None), z, slice(y - 7, y + 8), slice(x - 7, x + 8))
            assert np.array_equal(left[i], vols[subject].data[window])
            assert np.array_equal(right[i], vols[partner].data[window])

    def test_deterministic(self, phantom_pair):
        a = sampled_pairs(phantom_pair, count=10, seed=11)
        b = sampled_pairs(phantom_pair, count=10, seed=11)
        assert np.array_equal(a.rows, b.rows)

    def test_single_subject_rejected(self, phantom_pair):
        va = phantom_pair[0]
        with pytest.raises(SamplingError, match="two subjects"):
            build_similar_pairs({va.subject_id: []}, {va.subject_id: va}, patch_size=15, seed=0)

    def test_center_out_of_bounds_rejected(self, phantom_pair):
        va, vb = phantom_pair
        volumes = {va.subject_id: va, vb.subject_id: vb}
        with pytest.raises(SamplingError, match="bounds"):
            build_similar_pairs({va.subject_id: np.array([[10, 16, 3]])}, volumes, patch_size=15)


def make_pool(n, seed=0, female_fraction=0.45, age_sd=9.0):
    rng = np.random.default_rng(seed)
    n_f = int(round(female_fraction * n))
    sexes = ["F"] * n_f + ["M"] * (n - n_f)
    rng.shuffle(sexes)
    return [
        SubjectMeta(f"c{i:02d}", float(max(25.0, rng.normal(61.0, age_sd))), sexes[i], "control")
        for i in range(n)
    ]


# The paper's balance rule (SplitConfig's defaults).
BALANCE = dict(age_tolerance=2.0, female_range=(0.30, 0.50))


class TestBootstrapSplit:
    def test_canonical_sizes_and_disjointness(self):
        plans = bootstrap_split(make_pool(56), n_samples=10, n_train=41, n_test=15, seed=1, **BALANCE)
        assert len(plans) == 10
        for plan in plans:
            assert len(plan.train_ids) == 41
            assert len(plan.test_ids) == 15
            assert not set(plan.train_ids) & set(plan.test_ids)

    def test_identical_ages_never_reject_on_age(self):
        pool = [SubjectMeta(f"c{i}", 61.0, "F" if i % 9 < 4 else "M", "control") for i in range(56)]
        plans = bootstrap_split(pool, n_samples=5, n_train=41, n_test=15, seed=0, **BALANCE)
        assert len(plans) == 5
        for plan in plans:
            assert plan.balance.train_mean_age == plan.balance.test_mean_age == 61.0

    def test_balance_constraints_hold(self):
        plans = bootstrap_split(make_pool(56, seed=3), n_samples=10, n_train=41, n_test=15, seed=8, **BALANCE)
        for plan in plans:
            b = plan.balance
            assert abs(b.train_mean_age - b.test_mean_age) <= 2.0
            assert 0.30 <= b.train_female_fraction <= 0.50
            assert 0.30 <= b.test_female_fraction <= 0.50

    def test_pure_function_of_seed(self):
        pool = make_pool(56, seed=5)
        sizes = dict(n_samples=10, n_train=41, n_test=15, seed=2)
        assert bootstrap_split(pool, **sizes, **BALANCE) == bootstrap_split(pool, **sizes, **BALANCE)

    def test_pool_size_mismatch(self):
        with pytest.raises(SamplingError, match="pool"):
            bootstrap_split(make_pool(30), n_samples=10, n_train=41, n_test=15, seed=0, **BALANCE)

    def test_unattainable_balance(self):
        pool = [SubjectMeta(f"c{i}", 61.0, "M", "control") for i in range(56)]
        with pytest.raises(BalanceError):
            bootstrap_split(pool, n_samples=1, n_train=41, n_test=15, seed=0, **BALANCE)

    def test_patient_in_pool_rejected(self):
        pool = make_pool(55) + [SubjectMeta("p0", 60.0, "F", "patient")]
        with pytest.raises(SamplingError, match="controls"):
            bootstrap_split(pool, n_samples=10, n_train=41, n_test=15, seed=0, **BALANCE)
