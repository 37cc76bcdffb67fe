"""Subject-level scoring: per-ROI abnormal-voxel percentages, ROC threshold
selection by geometric mean, and aggregation across bootstrap splits.

A subject's score for a region is the percentage of covered region voxels
flagged abnormal.  The classifier calls a subject pathological when its score
strictly exceeds a threshold, and the pathological threshold is the sweep
candidate maximizing g-mean = sqrt(sensitivity * specificity); ties resolve to
the smallest threshold, which favors sensitivity on imbalanced test sets.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .anomaly import BinaryAnomalyMap
from .artifacts import save_csv
from .atlas import LabelAtlas
from .volume import SubjectMeta, VolumeError

WHOLE_BRAIN = "whole-brain"


class EvaluationError(VolumeError):
    """Scoring/ROC misuse (single-class input, empty region, ...)."""


@dataclass(frozen=True)
class RoiScoreTable:
    """Rows are subjects, columns are ROI names (whole brain first), cells are
    abnormal-voxel percentages in [0, 100]."""

    subject_ids: tuple[str, ...]
    cohorts: tuple[str, ...]
    columns: tuple[str, ...]
    values: np.ndarray  # (n_subjects, n_columns) float64

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]


@dataclass(frozen=True)
class RocResult:
    thresholds: tuple[float, ...]
    sensitivities: tuple[float, ...]
    specificities: tuple[float, ...]
    gmeans: tuple[float, ...]
    threshold: float
    gmean: float
    sensitivity: float
    specificity: float

    def to_dict(self) -> dict:
        return {
            "thresholds": list(self.thresholds),
            "sensitivities": list(self.sensitivities),
            "specificities": list(self.specificities),
            "gmeans": list(self.gmeans),
            "chosen": {
                "threshold": self.threshold,
                "gmean": self.gmean,
                "sensitivity": self.sensitivity,
                "specificity": self.specificity,
            },
        }


@dataclass(frozen=True)
class SummaryRow:
    model: str
    roi: str
    mean_gmean: float
    std_gmean: float
    best_sample: int
    best_gmean: float
    n_samples: int
    single_sample: bool


@dataclass(frozen=True)
class BootstrapSummary:
    rows: tuple[SummaryRow, ...]

    def row(self, model: str, roi: str) -> SummaryRow:
        for r in self.rows:
            if r.model == model and r.roi == roi:
                return r
        raise KeyError(f"no summary row for ({model}, {roi})")


def roi_fraction(bmap: BinaryAnomalyMap, atlas: LabelAtlas, label: int) -> float:
    """Percentage of the region's covered voxels flagged abnormal."""
    if atlas.dims != bmap.abnormal.shape:
        raise EvaluationError(
            f"atlas dims {atlas.dims} do not match map dims {bmap.abnormal.shape}"
        )
    roi = atlas.labels == label
    covered = roi & bmap.coverage
    denom = int(covered.sum())
    if denom == 0:
        raise EvaluationError(
            f"region {label} of atlas {atlas.atlas_id} has no covered voxel"
        )
    return 100.0 * int((bmap.abnormal & roi).sum()) / denom


def whole_brain_fraction(bmap: BinaryAnomalyMap) -> float:
    denom = int(bmap.coverage.sum())
    if denom == 0:
        raise EvaluationError("empty coverage")
    return 100.0 * int(bmap.abnormal.sum()) / denom


def build_score_table(
    bmaps: Mapping[str, BinaryAnomalyMap],
    metas: Sequence[SubjectMeta],
    atlases: Sequence[LabelAtlas],
) -> RoiScoreTable:
    """Score one cohort of binary maps against every atlas region."""
    columns: list[str] = [WHOLE_BRAIN]
    for atlas in atlases:
        columns.extend(f"{atlas.atlas_id}:{name}" for _, name in atlas.regions())
    rows = []
    for meta in metas:
        bmap = bmaps[meta.subject_id]
        row = [whole_brain_fraction(bmap)]
        for atlas in atlases:
            row.extend(roi_fraction(bmap, atlas, label) for label, _ in atlas.regions())
        rows.append(row)
    return RoiScoreTable(
        subject_ids=tuple(m.subject_id for m in metas),
        cohorts=tuple(m.cohort for m in metas),
        columns=tuple(columns),
        values=np.asarray(rows, dtype=np.float64),
    )


def gmean(sensitivity: float | np.ndarray, specificity: float | np.ndarray) -> float | np.ndarray:
    """Geometric mean of sensitivity and specificity, scalars or arrays."""
    s, p = np.asarray(sensitivity), np.asarray(specificity)
    if not (((0.0 <= s) & (s <= 1.0)).all() and ((0.0 <= p) & (p <= 1.0)).all()):
        raise EvaluationError(
            f"sensitivity/specificity must be in [0, 1], got {sensitivity}/{specificity}"
        )
    return np.sqrt(s * p)


def roc_select(scores: Sequence[float], labels: Sequence[str]) -> RocResult:
    """Sweep candidate thresholds and keep the g-mean maximizer.

    Candidates are the midpoints between consecutive sorted unique scores plus
    one sentinel below the minimum and one above the maximum.  A subject is
    classified pathological when score > threshold.  Ties on g-mean resolve to
    the smallest threshold.
    """
    scores = np.asarray(scores, dtype=np.float64)
    is_patient = np.asarray([lab == "patient" for lab in labels], dtype=bool)
    if scores.shape[0] != is_patient.shape[0]:
        raise EvaluationError("scores and labels differ in length")
    n_pos = int(is_patient.sum())
    n_neg = int((~is_patient).sum())
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("ROC needs both patients and controls in the test set")

    uniq = np.unique(scores)
    candidates = np.concatenate([uniq[:1] - 1.0, 0.5 * (uniq[:-1] + uniq[1:]), uniq[-1:] + 1.0])
    flagged = scores > candidates[:, None]  # one row per candidate threshold
    sens = (flagged & is_patient).sum(axis=1) / n_pos
    spec = (~flagged & ~is_patient).sum(axis=1) / n_neg
    gm = gmean(sens, spec)
    # Smallest threshold among the maximizers; the tolerance keeps g-means
    # that are equal up to rounding (e.g. sqrt(0.4*0.75) vs sqrt(0.6*0.5))
    # from breaking the tie rule.
    best = int(np.argmax(gm >= gm.max() - 1e-12))
    thresholds, sens, spec, gm = (tuple(a.tolist()) for a in (candidates, sens, spec, gm))
    return RocResult(
        thresholds=thresholds,
        sensitivities=sens,
        specificities=spec,
        gmeans=gm,
        threshold=thresholds[best],
        gmean=gm[best],
        sensitivity=sens[best],
        specificity=spec[best],
    )


def evaluate_split(tables: Mapping[str, RoiScoreTable]) -> dict[str, dict[str, RocResult]]:
    """ROC selection for every (model, ROI column) of one split's score tables."""
    out: dict[str, dict[str, RocResult]] = {}
    for model, table in tables.items():
        out[model] = {
            roi: roc_select(table.column(roi), table.cohorts) for roi in table.columns
        }
    return out


def aggregate_bootstrap(
    split_gmeans: Sequence[Mapping[str, Mapping[str, float]]],
    sample_indices: Sequence[int],
) -> BootstrapSummary:
    """Mean/std/best g-mean per (model, ROI) over completed splits, each
    given as {model: {roi: chosen g-mean}}, whose 1-based split numbers
    `sample_indices` name the best sample.

    Uses the sample (n-1) standard deviation; a single completed split reports
    std 0 with the single_sample flag raised.
    """
    if len(split_gmeans) == 0:
        raise EvaluationError("no completed splits to aggregate")
    models = sorted(split_gmeans[0])
    rows: list[SummaryRow] = []
    for model in models:
        rois = list(split_gmeans[0][model])
        for roi in rois:
            values = [split[model][roi] for split in split_gmeans]
            single = len(values) == 1
            std = 0.0 if single else float(np.std(values, ddof=1))
            best = int(np.argmax(values))
            rows.append(
                SummaryRow(
                    model=model,
                    roi=roi,
                    mean_gmean=float(np.mean(values)),
                    std_gmean=std,
                    best_sample=int(sample_indices[best]),
                    best_gmean=float(values[best]),
                    n_samples=len(values),
                    single_sample=single,
                )
            )
    return BootstrapSummary(rows=tuple(rows))


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------


def save_score_table(table: RoiScoreTable, path: str | Path) -> None:
    rows = zip(table.subject_ids, table.cohorts, table.values)
    save_csv(path, [
        ["subject_id", "cohort", *table.columns],
        *([sid, cohort, *(f"{v:.6f}" for v in values)] for sid, cohort, values in rows),
    ])


def load_score_table(path: str | Path) -> RoiScoreTable:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns = tuple(header[2:])
        ids, cohorts, rows = [], [], []
        for row in reader:
            ids.append(row[0])
            cohorts.append(row[1])
            rows.append([float(v) for v in row[2:]])
    return RoiScoreTable(
        subject_ids=tuple(ids),
        cohorts=tuple(cohorts),
        columns=columns,
        values=np.asarray(rows, dtype=np.float64),
    )


def save_summary(summary: BootstrapSummary, path: str | Path) -> None:
    save_csv(path, [
        ["model", "roi", "mean_gmean", "std_gmean", "best_sample", "best_gmean", "n_samples", "single_sample"],
        *(
            [r.model, r.roi, f"{r.mean_gmean:.6f}", f"{r.std_gmean:.6f}", r.best_sample,
             f"{r.best_gmean:.6f}", r.n_samples, int(r.single_sample)]
            for r in summary.rows
        ),
    ])
