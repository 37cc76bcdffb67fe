import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomvox.anomaly import AbnormalityThreshold, BinaryAnomalyMap
from anomvox.atlas import LabelAtlas, load_atlas, make_core_atlas, make_octant_atlas, save_atlas
from anomvox.evaluation import (
    EvaluationError,
    aggregate_bootstrap,
    build_score_table,
    evaluate_split,
    gmean,
    load_score_table,
    roc_select,
    roi_fraction,
    save_score_table,
    whole_brain_fraction,
)
from anomvox.volume import SubjectMeta

T = AbnormalityThreshold(q=0.98, value=0.1, source="x", pool_size=10)


def bmap(abnormal, coverage=None, sid="s"):
    abnormal = np.asarray(abnormal, dtype=bool)
    cov = np.ones_like(abnormal) if coverage is None else np.asarray(coverage, dtype=bool)
    return BinaryAnomalyMap(subject_id=sid, abnormal=abnormal & cov, coverage=cov, threshold=T)


class TestRoiFraction:
    def atlas2(self, dims=(2, 4, 4)):
        labels = np.zeros(dims, dtype=np.int32)
        labels[:, :, :2] = 1
        labels[:, :, 2:] = 2
        return LabelAtlas("toy", labels, {1: "left", 2: "right"})

    def test_empty_map_zero_everywhere(self):
        atlas = self.atlas2()
        m = bmap(np.zeros((2, 4, 4), dtype=bool))
        assert roi_fraction(m, atlas, 1) == 0.0
        assert roi_fraction(m, atlas, 2) == 0.0

    def test_fully_abnormal_roi(self):
        atlas = self.atlas2()
        abnormal = np.zeros((2, 4, 4), dtype=bool)
        abnormal[:, :, :2] = True
        m = bmap(abnormal)
        assert roi_fraction(m, atlas, 1) == 100.0
        assert roi_fraction(m, atlas, 2) == 0.0

    def test_checkerboard_hand_count(self):
        atlas = self.atlas2()
        abnormal = np.indices((2, 4, 4)).sum(axis=0) % 2 == 0
        m = bmap(abnormal)
        # By hand: each ROI holds 16 voxels, half on each parity.
        assert roi_fraction(m, atlas, 1) == pytest.approx(100.0 * 8 / 16)
        assert roi_fraction(m, atlas, 2) == pytest.approx(100.0 * 8 / 16)

    def test_roi_outside_coverage_rejected(self):
        atlas = self.atlas2()
        cov = np.zeros((2, 4, 4), dtype=bool)
        cov[:, :, 2:] = True  # only ROI 2 covered
        m = bmap(np.zeros((2, 4, 4), dtype=bool), coverage=cov)
        with pytest.raises(EvaluationError, match="no covered voxel"):
            roi_fraction(m, atlas, 1)

    def test_partition_identity(self):
        # Coverage-weighted ROI fractions over a partition reproduce the
        # whole-brain fraction.
        rng = np.random.default_rng(4)
        atlas = make_octant_atlas((12, 14, 12))
        cov = atlas.labels > 0
        abnormal = (rng.random((12, 14, 12)) < 0.1) & cov
        m = bmap(abnormal, coverage=cov)
        total = 0.0
        for label, _ in atlas.regions():
            roi_cov = int(((atlas.labels == label) & cov).sum())
            total += roi_fraction(m, atlas, label) * roi_cov
        assert total / int(cov.sum()) == pytest.approx(whole_brain_fraction(m))


class TestGmean:
    def test_ones(self):
        assert gmean(1.0, 1.0) == 1.0

    def test_zero_sensitivity(self):
        assert gmean(0.0, 0.73) == 0.0

    def test_worked_value(self):
        assert gmean(2 / 3, 1.0) == pytest.approx(0.8165, abs=1e-4)

    def test_out_of_range(self):
        with pytest.raises(EvaluationError):
            gmean(1.2, 0.5)


def sweep_oracle(scores, labels):
    """Exhaustive threshold sweep at every score value +/- epsilon."""
    scores = np.asarray(scores, dtype=float)
    pos = np.asarray([l == "patient" for l in labels])
    eps = 1e-9 * max(1.0, np.abs(scores).max())
    candidates = sorted(
        set(
            [float(s - eps) for s in scores]
            + [float(s + eps) for s in scores]
            + [scores.min() - 1.0, scores.max() + 1.0]
        )
    )
    best = (-1.0, None)
    for t in candidates:
        flagged = scores > t
        sens = (flagged & pos).sum() / pos.sum()
        spec = (~flagged & ~pos).sum() / (~pos).sum()
        g = np.sqrt(sens * spec)
        if g > best[0] + 1e-12:
            best = (g, t)
    return best[0]


class TestRocSelect:
    def test_worked_example(self):
        scores = [2.0, 3.0, 4.0, 3.5, 5.0, 6.0]
        labels = ["control"] * 3 + ["patient"] * 3
        res = roc_select(scores, labels)
        assert res.gmean == pytest.approx(0.8165, abs=1e-4)
        # Tie between the (3, 3.5) midpoint and the (4, 5) midpoint resolves
        # to the smaller threshold, keeping sensitivity 1.
        assert res.threshold == pytest.approx(3.25)
        assert res.sensitivity == pytest.approx(1.0)
        assert res.specificity == pytest.approx(2 / 3)

    def test_perfect_separation(self):
        res = roc_select([1, 2, 3, 10, 11, 12], ["control"] * 3 + ["patient"] * 3)
        assert res.gmean == 1.0

    def test_identical_scores(self):
        res = roc_select([5.0] * 6, ["control"] * 3 + ["patient"] * 3)
        assert res.gmean == sweep_oracle([5.0] * 6, ["control"] * 3 + ["patient"] * 3)

    def test_single_class_rejected(self):
        with pytest.raises(EvaluationError, match="both"):
            roc_select([1.0, 2.0], ["control", "control"])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 12), st.integers(2, 12))
    def test_matches_sweep_oracle(self, seed, n_pos, n_neg):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.random(n_pos + n_neg) * 10, 2)
        labels = ["patient"] * n_pos + ["control"] * n_neg
        res = roc_select(scores, labels)
        assert res.gmean == pytest.approx(sweep_oracle(scores, labels), abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_invariant_under_increasing_transform(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(10) * 100
        labels = list(rng.choice(["patient", "control"], 10))
        if len(set(labels)) < 2:
            labels[0] = "patient"
            labels[1] = "control"
        a = roc_select(scores, labels)
        b = roc_select(np.exp(scores / 50.0), labels)
        assert a.gmean == pytest.approx(b.gmean, abs=1e-12)
        assert a.sensitivity == b.sensitivity
        assert a.specificity == b.specificity

    def test_sweep_monotonicity(self):
        rng = np.random.default_rng(3)
        scores = rng.random(20) * 5
        labels = ["patient"] * 12 + ["control"] * 8
        res = roc_select(scores, labels)
        sens = np.array(res.sensitivities)
        spec = np.array(res.specificities)
        assert (np.diff(sens) <= 1e-12).all()
        assert (np.diff(spec) >= -1e-12).all()


class TestScoreTable:
    def make_setup(self):
        rng = np.random.default_rng(0)
        dims = (20, 32, 32)
        macro = make_octant_atlas(dims)
        micro = make_core_atlas(dims, inplane_margin=0)
        cov = macro.labels > 0
        metas, maps = [], {}
        for i in range(4):
            cohort = "patient" if i >= 2 else "control"
            sid = f"s{i}"
            abnormal = (rng.random(dims) < (0.02 if cohort == "control" else 0.1)) & cov
            maps[sid] = bmap(abnormal, coverage=cov, sid=sid)
            metas.append(SubjectMeta(sid, 60.0 + i, "F" if i % 2 else "M", cohort))
        return maps, metas, [macro, micro]

    def test_build_and_roundtrip(self, tmp_path):
        maps, metas, atlases = self.make_setup()
        table = build_score_table(maps, metas, atlases)
        assert table.columns[0] == "whole-brain"
        assert len(table.columns) == 17  # whole brain + 8 macro + 8 micro
        assert table.values.shape == (4, 17)
        assert (table.values >= 0).all() and (table.values <= 100).all()
        save_score_table(table, tmp_path / "scores.csv")
        back = load_score_table(tmp_path / "scores.csv")
        assert back.columns == table.columns
        assert back.subject_ids == table.subject_ids
        assert np.allclose(back.values, table.values, atol=1e-6)

    def test_evaluate_split_counts(self):
        maps, metas, atlases = self.make_setup()
        table = build_score_table(maps, metas, atlases)
        results = evaluate_split({"ae": table, "sae": table})
        assert set(results) == {"ae", "sae"}
        assert len(results["ae"]) == 17

    def test_evaluate_split_single_class(self):
        maps, metas, atlases = self.make_setup()
        controls = [m for m in metas if m.cohort == "control"]
        table = build_score_table(maps, controls, atlases)
        with pytest.raises(EvaluationError):
            evaluate_split({"ae": table})


class TestAggregate:
    def test_single_split_flagged(self):
        summary = aggregate_bootstrap([{"ae": {"whole-brain": 0.7}}], [1])
        row = summary.row("ae", "whole-brain")
        assert row.std_gmean == 0.0
        assert row.single_sample
        assert row.n_samples == 1

    def test_constant_values(self):
        results = [{"ae": {"roi": 0.7}} for _ in range(10)]
        row = aggregate_bootstrap(results, range(1, 11)).row("ae", "roi")
        assert row.mean_gmean == pytest.approx(0.7)
        assert row.std_gmean == 0.0

    def test_two_values_sample_std(self):
        # Splits 3 and 7 completed; the best is named by its split number.
        results = [{"ae": {"roi": 0.6}}, {"ae": {"roi": 0.8}}]
        row = aggregate_bootstrap(results, [3, 7]).row("ae", "roi")
        assert row.mean_gmean == pytest.approx(0.7)
        assert row.std_gmean == pytest.approx(0.1414, abs=1e-4)
        assert row.best_sample == 7
        assert row.best_gmean == pytest.approx(0.8)

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            aggregate_bootstrap([], [])


class TestAtlasIO:
    def test_round_trip(self, tmp_path):
        atlas = make_core_atlas((20, 32, 32), inplane_margin=0)
        save_atlas(atlas, tmp_path / "a.mvol", tmp_path / "a.json")
        back = load_atlas(tmp_path / "a.mvol", tmp_path / "a.json")
        assert back.atlas_id == atlas.atlas_id
        assert np.array_equal(back.labels, atlas.labels)
        assert back.names == atlas.names

    def test_octants_cover_support(self):
        atlas = make_octant_atlas((16, 16, 16))
        assert set(np.unique(atlas.labels)) == set(range(9))

    def test_unnamed_label_rejected(self):
        labels = np.zeros((2, 2, 2), dtype=np.int32)
        labels[0, 0, 0] = 3
        with pytest.raises(Exception, match="no name"):
            LabelAtlas("bad", labels, {1: "x"})
