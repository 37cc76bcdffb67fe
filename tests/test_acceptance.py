"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 6 runs the full quick-profile pipeline once (about 3.5 minutes on a
2-core CPU) through the command-line entry point; its thresholds were fixed
from the first calibration run (whole-brain mean g-mean 0.92/1.00 and pooled
lesion error ratios 4.1x/3.2x for AE/SAE) and are asserted at the stated
gates of 0.80 and 2.0x.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from anomvox.anomaly import (
    AbnormalityThreshold,
    ErrorMap,
    binarize,
    interpolated_quantile,
    load_error_map,
)
from anomvox.atlas import make_octant_atlas
from anomvox.cli import main as cli_main
from anomvox.evaluation import roc_select, roi_fraction, whole_brain_fraction
from anomvox.models import AEModel, SAEModel, ae_loss_grad, sae_loss_grad
from anomvox.nn import grad_check
from anomvox.volume import load_mvol

QUICK_SEED = 1234


@contextmanager
def criterion(cid: str, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {cid} ({description}): FAIL", flush=True)
        raise
    print(
        f"\nACCEPTANCE {cid} ({description}): PASS [{time.perf_counter() - start:.1f}s]",
        flush=True,
    )


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """One full quick-profile pipeline execution through the CLI."""
    out = tmp_path_factory.mktemp("acceptance_quick")
    t0 = time.perf_counter()
    rc = cli_main(["run", "--quick", "--out", str(out), "--seed", str(QUICK_SEED)])
    elapsed = time.perf_counter() - t0
    assert rc == 0, "quick pipeline exited nonzero"
    return out, elapsed


class TestCriterion1Shapes:
    def test_shape_oracles(self):
        with criterion("1", "shape oracles"):
            ae = AEModel((121, 145), seed=0, dtype=np.float32)
            assert ae.bottleneck_shape == (256, 4, 5)
            x = np.random.default_rng(0).random((1, 2, 121, 145), dtype=np.float32)
            assert ae.encode(x, train=True).shape == (1, 256, 4, 5)
            sae = SAEModel(seed=0)
            p = np.random.default_rng(1).random((3, 2, 15, 15), dtype=np.float32)
            assert sae.encode(p).shape == (3, 16, 2, 2)
            assert sae.reconstruct(p).shape == (3, 2, 15, 15)
            bottleneck = ae.encoder.shapes((2, 121, 145))[-1]
            assert bottleneck == (256, 4, 5)
            assert ae.decoder.shapes(bottleneck)[-1] == (2, 121, 145)


class TestCriterion2Gradients:
    def test_full_model_gradients_five_seeds(self):
        with criterion("2", "gradient correctness, 5 seeds"):
            t0 = time.perf_counter()
            for seed in range(5):
                rng = np.random.default_rng(100 + seed)
                ae = AEModel((8, 10), seed=seed, dtype=np.float64)
                x = rng.uniform(0.05, 0.95, size=(2, 2, 8, 10))
                rep = grad_check(ae, x, samples_per_param=6, seed=seed)
                assert rep.max_rel_err <= 1e-4, (seed, rep.per_param)
                sae = SAEModel(alpha=0.005, seed=seed, dtype=np.float64)
                x1 = rng.uniform(0.05, 0.95, size=(3, 2, 15, 15))
                x2 = rng.uniform(0.05, 0.95, size=(3, 2, 15, 15))
                rep = grad_check(sae, (x1, x2), samples_per_param=6, seed=seed)
                assert rep.max_rel_err <= 1e-4, (seed, rep.per_param)
            assert time.perf_counter() - t0 < 60.0


class TestCriterion3LossIdentities:
    def test_identities(self):
        with criterion("3", "loss identities"):
            rng = np.random.default_rng(3)
            x1 = rng.random((4, 2, 15, 15), dtype=np.float32)
            x2 = rng.random((4, 2, 15, 15), dtype=np.float32)
            z = rng.normal(size=(4, 16, 2, 2)).astype(np.float32)
            val = sae_loss_grad(x1, x2, x1, x2, z, z, alpha=0.005)[0]
            assert val == pytest.approx(-0.005, abs=1e-7)
            x = rng.random((8, 2, 12, 12), dtype=np.float32)
            assert ae_loss_grad(x, x)[0] == 0.0


def sort_oracle_quantile(values, q):
    v = sorted(float(x) for x in values)
    n = len(v)
    pos = q * (n - 1)
    j = math.floor(pos)
    g = pos - j
    if j + 1 >= n:
        return v[-1]
    return v[j] + g * (v[j + 1] - v[j])


def roc_sweep_oracle(scores, labels):
    """Exhaustive sweep over every score value +/- epsilon plus sentinels."""
    scores = np.asarray(scores, dtype=float)
    pos = np.asarray([l == "patient" for l in labels])
    eps = 1e-9 * max(1.0, float(np.abs(scores).max()))
    candidates = sorted(
        set(
            [float(s - eps) for s in scores]
            + [float(s + eps) for s in scores]
            + [float(scores.min() - 1.0), float(scores.max() + 1.0)]
        )
    )
    best_g, best = -1.0, None
    for t in candidates:
        flagged = scores > t
        sens = float((flagged & pos).sum() / pos.sum())
        spec = float((~flagged & ~pos).sum() / (~pos).sum())
        g = math.sqrt(sens * spec)
        if g > best_g + 1e-12:  # keep the smallest threshold on ties
            best_g, best = g, (sens, spec)
    return best_g, best


class TestCriterion4Oracles:
    def test_oracle_equivalences(self):
        with criterion("4", "oracle equivalences"):
            rng = np.random.default_rng(4)
            values = rng.exponential(size=100_000).astype(np.float32)
            for q in (0.5, 0.9, 0.98, 0.995):
                assert interpolated_quantile(values, q) == sort_oracle_quantile(values, q)

            for trial in range(200):
                trial_rng = np.random.default_rng(1000 + trial)
                n_pos = int(trial_rng.integers(2, 12))
                n_neg = int(trial_rng.integers(2, 12))
                scores = np.round(trial_rng.random(n_pos + n_neg) * 10, 2)
                labels = ["patient"] * n_pos + ["control"] * n_neg
                res = roc_select(scores, labels)
                oracle_g, oracle_sp = roc_sweep_oracle(scores, labels)
                assert res.gmean == pytest.approx(oracle_g, abs=1e-9), trial
                assert (res.sensitivity, res.specificity) == pytest.approx(oracle_sp), trial
                # stated tie-break: no smaller candidate achieves the maximum
                for t, g in zip(res.thresholds, res.gmeans):
                    if t < res.threshold:
                        assert g < res.gmean - 1e-12

            res = roc_select([2.0, 3.0, 4.0, 3.5, 5.0, 6.0], ["control"] * 3 + ["patient"] * 3)
            assert res.gmean == pytest.approx(0.8165, abs=1e-4)
            assert res.sensitivity == 1.0 and res.specificity == pytest.approx(2 / 3)


class TestCriterion5Monotonicity:
    def test_monotonicity_suite(self):
        with criterion("5", "monotonicity properties"):
            rng = np.random.default_rng(5)
            for trial in range(20):
                data = rng.random((4, 8, 8)).astype(np.float32)
                cov = np.ones_like(data, dtype=bool)
                emap = ErrorMap("s", data, cov, "ae:t")
                counts = []
                for v in np.linspace(0.0, 1.0, 9):
                    t = AbnormalityThreshold(q=0.5, value=float(v), source="x", pool_size=1)
                    counts.append(int(binarize(emap, t).abnormal.sum()))
                assert counts == sorted(counts, reverse=True)

            for trial in range(20):
                scores = rng.random(16) * 10
                labels = ["patient"] * 9 + ["control"] * 7
                res = roc_select(scores, labels)
                assert (np.diff(res.sensitivities) <= 1e-12).all()
                assert (np.diff(res.specificities) >= -1e-12).all()

            atlas = make_octant_atlas((12, 14, 12))
            cov = atlas.labels > 0
            for trial in range(10):
                abnormal = (rng.random((12, 14, 12)) < 0.15) & cov
                bmap = binarize(
                    ErrorMap("s", abnormal.astype(np.float32), cov, "ae:t"),
                    AbnormalityThreshold(q=0.5, value=0.5, source="x", pool_size=1),
                )
                total = 0.0
                for label, _ in atlas.regions():
                    roi_cov = int(((atlas.labels == label) & cov).sum())
                    total += roi_fraction(bmap, atlas, label) * roi_cov
                assert total / int(cov.sum()) == pytest.approx(whole_brain_fraction(bmap))


class TestCriterion6PhantomRegression:
    def test_end_to_end_quick_profile(self, quick_run):
        with criterion("6", "end-to-end phantom regression"):
            out, elapsed = quick_run
            summary = (out / "summary" / "bootstrap_summary.csv").read_text().splitlines()
            header = summary[0].split(",")
            rows = [dict(zip(header, line.split(","))) for line in summary[1:]]
            whole = {r["model"]: float(r["mean_gmean"]) for r in rows if r["roi"] == "whole-brain"}
            print(f"  whole-brain mean g-mean: {whole}", flush=True)
            assert whole["ae"] >= 0.80
            assert whole["sae"] >= 0.80

            truth_doc = json.loads((out / "cohort" / "truth.json").read_text())
            for model in ("ae", "sae"):
                inside, outside = [], []
                for split in (1, 2):
                    maps_dir = out / "splits" / f"split_{split:02d}" / "maps"
                    for sid, entry in truth_doc.items():
                        if "mask_path" not in entry:
                            continue
                        emap = load_error_map(maps_dir / f"{sid}_{model}.mvol")
                        tmask = load_mvol(out / "cohort" / entry["mask_path"]).data[0] > 0.5
                        inside.append(emap.data[emap.coverage & tmask])
                        outside.append(emap.data[emap.coverage & ~tmask])
                ratio = np.concatenate(inside).mean() / np.concatenate(outside).mean()
                print(f"  {model} lesion error ratio: {ratio:.2f}x", flush=True)
                assert ratio >= 2.0, model

            print(f"  pipeline wall time: {elapsed:.0f}s", flush=True)
            assert elapsed <= 900.0


MICRO_ARGS = [
    "--seed", "7",
    "--n-controls", "6", "--n-patients", "3", "--dims", "24", "40", "40",
    "--delta", "0.2", "--lesion-radius", "2.5", "--lesions", "2", "--sigma", "0.02",
    "--n-splits", "1", "--n-train", "4", "--n-test", "2",
    "--slice-count", "10", "--patches-per-subject", "150",
    "--ae-epochs", "2", "--sae-epochs", "1",
]


class TestCriterion7Determinism:
    def test_rerun_byte_identical(self, tmp_path):
        with criterion("7", "byte-identical rerun"):
            out_a, out_b = tmp_path / "a", tmp_path / "b"
            assert cli_main(["run", "--out", str(out_a), *MICRO_ARGS]) == 0
            assert cli_main(["run", "--out", str(out_b), *MICRO_ARGS]) == 0
            compared = 0
            for pattern in ("*.anom", "*.csv", "*.svg"):
                for pa in sorted(out_a.rglob(pattern)):
                    rel = pa.relative_to(out_a)
                    assert (out_b / rel).exists(), rel
                    assert pa.read_bytes() == (out_b / rel).read_bytes(), rel
                    compared += 1
            assert compared >= 10  # checkpoints, logs, tables, figures


class TestCriterion8ReferenceContext:
    def test_report_renders_reference_values(self, quick_run):
        with criterion("8", "clinical reference context (documentation)"):
            out, _ = quick_run
            svg = (out / "summary" / "gmean_bars.svg").read_text()
            for token in ("66.9", "5.8", "65.3", "7.5"):
                assert token in svg, token
            assert "not reproducible" in svg
            assert "SAE" in svg and "AE" in svg
