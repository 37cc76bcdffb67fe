"""Static report emission: per-ROI g-mean bar chart and per-subject score
heat tables, as reproducible hand-built SVG.

SVG output is plain text assembled with fixed float formatting, so rerunning
over identical results produces byte-identical files.  The bar chart follows
the two-model layout with a dashed separator between macro- and
micro-structure blocks, and carries the published whole-brain reference
scores from the restricted clinical cohort, clearly labeled as context that
desk-scale phantom runs do not reproduce.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

from .artifacts import save_text
from .evaluation import BootstrapSummary, RoiScoreTable

# Whole-brain g-mean (percent, mean +/- std over 10 control splits) reported
# for the restricted clinical cohort; rendered as non-reproducible context.
CLINICAL_REFERENCE_GMEAN = {
    "sae": (66.9, 5.8),
    "ae": (65.3, 7.5),
}
CLINICAL_REFERENCE_LABEL = (
    "Clinical reference (restricted cohort, not reproducible at desk scale): "
    "whole-brain g-mean SAE {sae[0]:.1f} ± {sae[1]:.1f}%, "
    "AE {ae[0]:.1f} ± {ae[1]:.1f}%".format(**CLINICAL_REFERENCE_GMEAN)
)

MODEL_COLORS = {"ae": "#4878a8", "sae": "#c0604d"}


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _divider_index(roi_order: Sequence[str]) -> int | None:
    """Index of the first ROI of the last atlas block: the last column whose
    "atlas:" prefix differs from an atlas prefix just before it.  None when
    no two atlas blocks meet (columns without a prefix, such as whole-brain,
    separate nothing)."""
    prefixes = [roi.split(":")[0] if ":" in roi else None for roi in roi_order]
    pairs = enumerate(zip(prefixes, prefixes[1:]), 1)
    cuts = [i for i, (a, b) in pairs if None not in (a, b) and a != b]
    return cuts[-1] if cuts else None


def render_gmean_bars(
    summary: BootstrapSummary,
    roi_order: Sequence[str],
    models: Sequence[str] = ("ae", "sae"),
) -> str:
    """Grouped mean +/- std g-mean bars per ROI; returns the SVG text.

    A dashed divider sets off the last atlas block (see _divider_index).
    """
    left, top = 56.0, 40.0
    plot_h = 260.0
    group_w = 30.0 + 14.0 * len(models)
    plot_w = group_w * len(roi_order)
    width = left + plot_w + 30.0
    height = top + plot_h + 150.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}" font-family="monospace">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{left:.1f}" y="20" font-size="13">Subject-level g-mean per region</text>',
    ]
    # y axis with 0..1 ticks
    for tick in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        y = top + plot_h * (1.0 - tick)
        parts.append(
            f'<line x1="{left - 4:.1f}" y1="{y:.1f}" x2="{left + plot_w:.1f}" y2="{y:.1f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 10:.1f}" y="{y + 3:.1f}" font-size="9" text-anchor="end">{tick:.1f}</text>'
        )
    parts.append(
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" y2="{top + plot_h:.1f}" '
        f'stroke="#333333" stroke-width="1"/>'
    )

    any_single = False
    for gi, roi in enumerate(roi_order):
        gx = left + gi * group_w
        for mi, model in enumerate(models):
            row = summary.row(model, roi)
            bar_w = 14.0
            x = gx + 12.0 + mi * bar_w
            h = plot_h * max(0.0, min(1.0, row.mean_gmean))
            y = top + plot_h - h
            color = MODEL_COLORS.get(model, "#888888")
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w - 3:.1f}" height="{h:.1f}" '
                f'fill="{color}"/>'
            )
            if row.single_sample:
                any_single = True
            else:
                cx = x + (bar_w - 3.0) / 2.0
                y_hi = top + plot_h * (1.0 - min(1.0, row.mean_gmean + row.std_gmean))
                y_lo = top + plot_h * (1.0 - max(0.0, row.mean_gmean - row.std_gmean))
                parts.append(
                    f'<line x1="{cx:.1f}" y1="{y_hi:.1f}" x2="{cx:.1f}" y2="{y_lo:.1f}" '
                    f'stroke="#222222" stroke-width="1"/>'
                )
                for yy in (y_hi, y_lo):
                    parts.append(
                        f'<line x1="{cx - 3:.1f}" y1="{yy:.1f}" x2="{cx + 3:.1f}" y2="{yy:.1f}" '
                        f'stroke="#222222" stroke-width="1"/>'
                    )
        label_y = top + plot_h + 10.0
        parts.append(
            f'<text x="{gx + group_w / 2:.1f}" y="{label_y:.1f}" font-size="8" '
            f'text-anchor="end" transform="rotate(-45 {gx + group_w / 2:.1f} {label_y:.1f})">'
            f"{_esc(roi)}</text>"
        )

    divider = _divider_index(roi_order)
    if divider is not None:
        sx = left + divider * group_w
        parts.append(
            f'<line x1="{sx:.1f}" y1="{top:.1f}" x2="{sx:.1f}" y2="{top + plot_h:.1f}" '
            f'stroke="#555555" stroke-width="1" stroke-dasharray="5,4"/>'
        )

    legend_y = top + plot_h + 84.0
    for mi, model in enumerate(models):
        x = left + mi * 90.0
        parts.append(
            f'<rect x="{x:.1f}" y="{legend_y - 9:.1f}" width="10" height="10" '
            f'fill="{MODEL_COLORS.get(model, "#888888")}"/>'
        )
        parts.append(f'<text x="{x + 14:.1f}" y="{legend_y:.1f}" font-size="10">{_esc(model)}</text>')
    if any_single:
        parts.append(
            f'<text x="{left:.1f}" y="{legend_y + 16:.1f}" font-size="9" fill="#884400">'
            "single split: whiskers omitted</text>"
        )
    parts.append(
        f'<text x="{left:.1f}" y="{legend_y + 32:.1f}" font-size="9" fill="#555555">'
        f"{_esc(CLINICAL_REFERENCE_LABEL)}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _heat_color(value: float, vmax: float) -> str:
    t = 0.0 if vmax <= 0 else max(0.0, min(1.0, value / vmax))
    r = round(255 - t * (255 - 32))
    g = round(255 - t * (255 - 80))
    b = round(255 - t * (255 - 128))
    return f"#{r:02x}{g:02x}{b:02x}"


def render_score_heat(table: RoiScoreTable, title: str) -> str:
    """Per-subject per-ROI abnormal-percentage grid (controls above patients)."""
    order = sorted(range(len(table.subject_ids)), key=lambda i: (table.cohorts[i], table.subject_ids[i]))
    cell_w, cell_h = 36.0, 14.0
    left, top = 110.0, 70.0
    width = left + cell_w * len(table.columns) + 20.0
    height = top + cell_h * len(order) + 30.0
    vmax = float(max(table.values.max(), 1e-9))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}" font-family="monospace">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="10" y="18" font-size="12">{_esc(title)}</text>',
        '<text x="10" y="34" font-size="9" fill="#555555">abnormal voxels per region (%)</text>',
    ]
    for ci, col in enumerate(table.columns):
        x = left + ci * cell_w + cell_w / 2
        parts.append(
            f'<text x="{x:.1f}" y="{top - 6:.1f}" font-size="7" text-anchor="start" '
            f'transform="rotate(-50 {x:.1f} {top - 6:.1f})">{_esc(col)}</text>'
        )
    for ri, idx in enumerate(order):
        y = top + ri * cell_h
        parts.append(
            f'<text x="{left - 6:.1f}" y="{y + 10:.1f}" font-size="8" text-anchor="end">'
            f"{_esc(table.subject_ids[idx])} ({table.cohorts[idx][0]})</text>"
        )
        for ci in range(len(table.columns)):
            v = float(table.values[idx, ci])
            x = left + ci * cell_w
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{cell_w - 1:.1f}" height="{cell_h - 1:.1f}" '
                f'fill="{_heat_color(v, vmax)}"/>'
            )
            parts.append(
                f'<text x="{x + cell_w / 2 - 0.5:.1f}" y="{y + 10:.1f}" font-size="7" '
                f'text-anchor="middle">{v:.2f}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_report(
    summary: BootstrapSummary,
    roi_order: Sequence[str],
    split1_tables: Mapping[str, RoiScoreTable],
    out_dir: str | Path,
    models: Sequence[str] = ("ae", "sae"),
) -> list[Path]:
    """Emit the figure bundle into out_dir; returns the written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    bars = out_dir / "gmean_bars.svg"
    save_text(bars, render_gmean_bars(summary, roi_order, models))
    written.append(bars)
    for model, table in sorted(split1_tables.items()):
        path = out_dir / f"score_table_{model}.svg"
        save_text(path, render_score_heat(table, f"{model}: abnormal-voxel percentages (sample 1)"))
        written.append(path)
    return written
