from dataclasses import replace

import numpy as np
import pytest

from anomvox.phantom import (
    PhantomSpec,
    PhantomSpecError,
    ellipsoid_support,
    synth_cohort,
)
from anomvox.volume import compute_brain_mask

SMALL = dict(n_controls=3, n_patients=2, dims=(16, 18, 16), lesion_radius=2.0, lesions_per_patient=2)


@pytest.fixture(scope="module")
def small_cohort():
    return synth_cohort(PhantomSpec(**SMALL), seed=42)


def test_zero_magnitude_rejected():
    with pytest.raises(PhantomSpecError, match="magnitude"):
        PhantomSpec(n_controls=1, n_patients=1, anomaly_magnitude=0.0)


def test_magnitude_cap():
    with pytest.raises(PhantomSpecError):
        PhantomSpec(n_controls=1, n_patients=1, anomaly_magnitude=0.31)


def test_nonpositive_counts_rejected():
    with pytest.raises(PhantomSpecError):
        PhantomSpec(n_controls=0, n_patients=1)


def test_oversized_lesion_rejected():
    # A ball wider than the volume is refused by the spec itself; one that
    # fits the volume but not inside the brain support, by synth_cohort.
    with pytest.raises(PhantomSpecError, match="radius 6.0 is wider than"):
        PhantomSpec(n_controls=1, n_patients=1, dims=(12, 12, 12), lesion_radius=6.0)
    spec = PhantomSpec(n_controls=1, n_patients=1, dims=(12, 12, 12), lesion_radius=5.0)
    with pytest.raises(PhantomSpecError, match="radius 5.0 leaves no admissible center"):
        synth_cohort(spec, seed=0)


def test_deterministic_bit_identical(small_cohort):
    vols_a, metas_a, truths_a = small_cohort
    vols_b, metas_b, truths_b = synth_cohort(PhantomSpec(**SMALL), seed=42)
    assert metas_a == metas_b
    for a, b in zip(vols_a, vols_b):
        assert a.data.tobytes() == b.data.tobytes()
    for a, b in zip(truths_a, truths_b):
        assert np.array_equal(a.anomaly_mask, b.anomaly_mask)
        assert a.lesion_centers == b.lesion_centers


def test_different_seed_differs(small_cohort):
    vols_a, _, _ = small_cohort
    vols_b, _, _ = synth_cohort(PhantomSpec(**SMALL), seed=43)
    assert vols_a[0].data.tobytes() != vols_b[0].data.tobytes()


def test_values_in_unit_interval(small_cohort):
    for vol in small_cohort[0]:
        assert vol.data.min() >= 0.0
        assert vol.data.max() <= 1.0


def test_mask_equals_recorded_support(small_cohort):
    support_count = int(ellipsoid_support((16, 18, 16)).sum())
    for vol in small_cohort[0]:
        assert compute_brain_mask(vol).count == support_count


def test_controls_have_empty_truth(small_cohort):
    _, metas, truths = small_cohort
    for meta, truth in zip(metas, truths):
        if meta.cohort == "control":
            assert not truth.anomaly_mask.any()
            assert truth.lesion_centers == ()
        else:
            assert truth.anomaly_mask.any()


def test_anomaly_mask_inside_brain(small_cohort):
    support = ellipsoid_support((16, 18, 16))
    for truth in small_cohort[2]:
        assert not (truth.anomaly_mask & ~support).any()


def test_patient_offset_matches_recorded_magnitude():
    # Mean absolute difference to the anomaly-free twin, inside the lesion
    # mask, recovers delta within 20% (clipping can only shave it).  Patient
    # k's twin is subject k of the same cohort with every subject a control:
    # both draw from the subject stream seed + k.
    spec = PhantomSpec(
        n_controls=2, n_patients=2, dims=(24, 28, 24), anomaly_magnitude=0.15,
        noise_sigma=0.02, lesion_radius=3.0,
    )
    vols, metas, truths = synth_cohort(spec, seed=7)
    twins, _, _ = synth_cohort(replace(spec, n_controls=4, n_patients=0), seed=7)
    for k, (meta, truth) in enumerate(zip(metas, truths)):
        if meta.cohort != "patient":
            continue
        twin = twins[k].data
        diff = np.abs(vols[k].data.astype(np.float64) - twin.astype(np.float64))
        mad = diff[:, truth.anomaly_mask].mean()
        assert mad == pytest.approx(0.15, rel=0.20)


def test_subject_ids_and_cohorts(small_cohort):
    _, metas, _ = small_cohort
    assert [m.cohort for m in metas] == ["control"] * 3 + ["patient"] * 2
    assert len({m.subject_id for m in metas}) == 5
