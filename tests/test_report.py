import numpy as np
import pytest

from anomvox.evaluation import BootstrapSummary, RoiScoreTable, SummaryRow
from anomvox.report import (
    CLINICAL_REFERENCE_GMEAN,
    CLINICAL_REFERENCE_LABEL,
    _divider_index,
    render_gmean_bars,
    render_score_heat,
    write_report,
)


def summary(n_samples=2):
    rows = []
    for model in ("ae", "sae"):
        for roi in ("whole-brain", "macro:octant-1", "micro:core-1"):
            rows.append(
                SummaryRow(
                    model=model,
                    roi=roi,
                    mean_gmean=0.7,
                    std_gmean=0.05 if n_samples > 1 else 0.0,
                    best_sample=1,
                    best_gmean=0.75,
                    n_samples=n_samples,
                    single_sample=n_samples == 1,
                )
            )
    return BootstrapSummary(rows=tuple(rows))


def table():
    return RoiScoreTable(
        subject_ids=("c0", "p0"),
        cohorts=("control", "patient"),
        columns=("whole-brain", "macro:octant-1", "micro:core-1"),
        values=np.array([[1.5, 2.0, 0.0], [4.0, 6.5, 12.0]]),
    )


ROIS = ["whole-brain", "macro:octant-1", "micro:core-1"]


class TestGmeanBars:
    def test_reference_values_rendered(self):
        svg = render_gmean_bars(summary(), ROIS)
        assert CLINICAL_REFERENCE_LABEL in svg
        for value in ("66.9", "5.8", "65.3", "7.5"):
            assert value in svg
        assert "not reproducible" in svg

    def test_reference_constants_pinned(self):
        assert CLINICAL_REFERENCE_GMEAN["sae"] == (66.9, 5.8)
        assert CLINICAL_REFERENCE_GMEAN["ae"] == (65.3, 7.5)

    def test_grouped_bars_and_separator(self):
        svg = render_gmean_bars(summary(), ROIS)
        assert svg.count('fill="#4878a8"') >= 3  # ae bars (+ legend swatch)
        assert svg.count('fill="#c0604d"') >= 3  # sae bars
        assert "stroke-dasharray" in svg

    def test_single_split_drops_whiskers(self):
        svg = render_gmean_bars(summary(n_samples=1), ROIS)
        assert "whiskers omitted" in svg

    def test_deterministic_output(self):
        a = render_gmean_bars(summary(), ROIS)
        b = render_gmean_bars(summary(), ROIS)
        assert a == b


def prefix_change_loop(roi_order):
    """The divider index as the report stage once computed it, by hand."""
    last_prefix = None
    separator_after = None
    for i, col in enumerate(roi_order):
        prefix = col.split(":")[0] if ":" in col else None
        if prefix != last_prefix and last_prefix is not None and prefix is not None:
            separator_after = i
        last_prefix = prefix
    return separator_after


@pytest.mark.parametrize(
    "roi_order, expected",
    [
        ([], None),
        (["whole-brain"], None),
        (["whole-brain", "macro:octant-1", "macro:octant-2"], None),
        (["whole-brain", "macro:octant-1", "macro:octant-2", "micro:core-1"], 3),
        (["whole-brain", "a:r1", "b:r1", "b:r2", "c:r1", "c:r2"], 4),
        (["macro:octant-1", "micro:core-1"], 1),
        (["macro:octant-1", "whole-brain", "micro:core-1"], None),
        (["whole-brain", "macro:octant-1", "micro:core-1", "extra"], 2),
        (["macro:octant-1", "micro:core-1", "extra", "macro:octant-2"], 1),
        (["a:r1", "b:r1", "a:r2"], 2),
        ([":r1", "a:r1"], 1),
    ],
    ids=["empty", "zero-blocks", "one-block", "two-blocks", "three-blocks", "no-whole-brain",
         "unprefixed-between", "unprefixed-after", "unprefixed-then-block", "block-returns",
         "empty-prefix"],
)
def test_divider_before_last_atlas_block(roi_order, expected):
    assert _divider_index(roi_order) == prefix_change_loop(roi_order) == expected
    summary_rows = tuple(
        SummaryRow(model=m, roi=roi, mean_gmean=0.5, std_gmean=0.1, best_sample=1, best_gmean=0.6,
                   n_samples=2, single_sample=False)
        for m in ("ae", "sae") for roi in roi_order
    )
    svg = render_gmean_bars(BootstrapSummary(rows=summary_rows), roi_order)
    assert ("stroke-dasharray" in svg) == (expected is not None)


class TestScoreHeat:
    def test_cells_and_labels(self):
        svg = render_score_heat(table(), "sae scores")
        assert "sae scores" in svg
        assert "c0 (c)" in svg and "p0 (p)" in svg
        assert "12.00" in svg

    def test_deterministic(self):
        assert render_score_heat(table(), "t") == render_score_heat(table(), "t")


def test_write_report_bundle(tmp_path):
    paths = write_report(summary(), ROIS, {"ae": table(), "sae": table()}, tmp_path)
    names = {p.name for p in paths}
    assert names == {"gmean_bars.svg", "score_table_ae.svg", "score_table_sae.svg"}
    for p in paths:
        assert p.read_text().startswith("<svg")
