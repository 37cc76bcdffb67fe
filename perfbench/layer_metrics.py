"""Per-layer metrics from the spans of a traced run.

"Per step" values divide a layer's time over the traced steps by their
count.  A training step is one batch update; a maps step is one subject's
error maps, and only the time inside its traced map calls counts.  Layer
spans are leaves, so their self time is their duration.  A layer the
workload never calls reports 0.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict

from measure import percentile
from spans import self_times

AE_CONVS = [f"enc{i}" for i in range(1, 6)] + [f"dec{i}" for i in range(1, 6)]
SAE_CONVS = [f"enc{i}" for i in range(1, 4)] + [f"dec{i}" for i in range(1, 5)]
MODEL_PARTS = {
    "ae": (AE_CONVS, ("batchnorm", "pointwise")),
    "sae": (SAE_CONVS, ("maxpool", "upsample", "pointwise")),
}
STAGES = ("train", "threshold", "infer", "score", "evaluate", "report")

# Metrics that are the median duration of one call of the named span, in ms.
PER_CALL_MS = {
    "anomaly.error_volume_sae_ms": "anomaly.error_volume_sae",
    "anomaly.error_volume_ae_ms": "anomaly.error_volume_ae",
    "anomaly.threshold_ms": "anomaly.threshold",
    "anomaly.binarize_ms": "anomaly.binarize",
    "volume.save_mvol_ms": "volume.save_mvol",
    "volume.load_mvol_ms": "volume.load_mvol",
    "evaluation.score_table_ms": "evaluation.score_table",
    "evaluation.roc_ms": "evaluation.roc",
    "report.write_ms": "report.write",
}
# Metrics that total the named span's duration over the timed phase, in ms.
TOTAL_MS = {
    "sampling.extract_patches_ms": "sampling.extract_patches",
    "sampling.build_pairs_ms": "sampling.build_pairs",
}
# Metrics that are the whole duration (children included) per step, in ms.
INCLUSIVE_PER_STEP_MS = {
    "models.sae.slice_center_latents_ms": "models.sae.slice_center_latents",
    "models.sae.decode_center_values_ms": "models.sae.decode_center_values",
    "models.ae.reconstruct_ms": "models.ae.reconstruct",
}
# Metrics that are self time per step, in ms.
SELF_PER_STEP_MS = {
    "nn.adam.step_ms": "nn.adam.step",
    "models.loss_ms": "models.loss",
    "models.step_self_ms": "models.step",
}


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for model, (convs, others) in MODEL_PARTS.items():
        for part in list(convs) + list(others):
            for d in ("fwd", "bwd"):
                out.append((f"nn.{model}.{part}.{d}_ms", "ms", "lower"))
        out.append((f"nn.{model}.conv_gflops", "GFLOP/s", "higher"))
    out.append(("nn.adam.step_ms", "ms", "lower"))
    out.append(("nn.peak_gemm_gflops", "GFLOP/s", "higher"))
    for name in ("models.loss_ms", "models.step_self_ms", *INCLUSIVE_PER_STEP_MS):
        out.append((name, "ms", "lower"))
    out += [(name, "ms", "lower") for name in (*TOTAL_MS, *PER_CALL_MS)]
    out += [("sampling.pairs_rss_mb", "MB", "lower"), ("volume.mb_written", "MB", "lower"),
            ("anomaly.covered_voxels_ae", "count", "higher"),
            ("anomaly.covered_voxels_sae", "count", "higher")]
    out += [(f"pipeline.stage_{s}_s", "s", "lower") for s in STAGES]
    out += [("pipeline.self_s", "s", "lower"), ("pipeline.load_cohort_s", "s", "lower"),
            ("phantom.synth_s", "s", "lower")]
    out += [("proc.cpu_util", "ratio", "higher"), ("proc.trace_overhead_pct", "%", "lower")]
    return out


def _conv_labels(model: str) -> set[str]:
    return {f"nn.{model}.{c}.{d}" for c in MODEL_PARTS[model][0] for d in ("fwd", "bwd")}


def layer_metrics(tracer, phase, gemm_gflops: float) -> tuple[dict, list[str]]:
    """Per-layer metrics and a few report lines, from a traced run.

    The tracer recorded set-up spans under run ids "setup.*" and the timed
    phase under "timed".  Per-step figures come from the traced steps (their
    step or map spans carry the note traced=1); the untraced steps give the
    overhead baseline.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    timed = [i for i, s in enumerate(spans) if s[4] == "timed"]
    # Spans of untraced steps and maps say only how long the step took.
    counted = [i for i in timed if tracer.notes.get(i, {}).get("traced", 1)]

    def traced(names):
        return [i for i in timed if spans[i][0] in names and tracer.notes.get(i, {}).get("traced")]

    steps = traced({"models.step"})
    intervals = sorted((spans[i][1], spans[i][2]) for i in
                       (steps or traced({"anomaly.error_volume_ae", "anomaly.error_volume_sae"})))
    n_steps = len(steps) if steps else sum(phase.traced)
    starts = [a for a, _ in intervals]

    def inside(i):
        k = bisect_right(starts, spans[i][1]) - 1
        return k >= 0 and spans[i][2] <= intervals[k][1]

    self_sum = defaultdict(float)
    dur_sum = defaultdict(float)
    flop_sum = defaultdict(float)
    for i in filter(inside, timed):
        name = spans[i][0]
        self_sum[name] += selfs[i]
        dur_sum[name] += spans[i][2] - spans[i][1]
        flop_sum[name] += tracer.notes.get(i, {}).get("flop", 0)
    durations = defaultdict(list)
    for i in counted:
        durations[spans[i][0]].append(spans[i][2] - spans[i][1])

    m: dict[str, float] = {}
    per_step = (lambda seconds: 1000.0 * seconds / n_steps) if n_steps else (lambda s: 0.0)
    for model, (convs, others) in MODEL_PARTS.items():
        for part in list(convs) + list(others):
            for d in ("fwd", "bwd"):
                m[f"nn.{model}.{part}.{d}_ms"] = per_step(self_sum[f"nn.{model}.{part}.{d}"])
        labels = _conv_labels(model)
        conv_s = sum(self_sum[l] for l in labels)
        m[f"nn.{model}.conv_gflops"] = (
            sum(flop_sum[l] for l in labels) / conv_s / 1e9 if conv_s else 0.0)
    m["nn.peak_gemm_gflops"] = gemm_gflops
    for metric, span in SELF_PER_STEP_MS.items():
        m[metric] = per_step(self_sum[span])
    for metric, span in INCLUSIVE_PER_STEP_MS.items():
        m[metric] = per_step(dur_sum[span])
    for metric, span in TOTAL_MS.items():
        m[metric] = 1000.0 * sum(durations[span])
    for metric, span in PER_CALL_MS.items():
        m[metric] = 1000.0 * percentile(durations[span], 50) if durations[span] else 0.0

    counts = {name: v for (run, name), v in tracer.counts.items() if run == "timed"}
    m["sampling.pairs_rss_mb"] = counts.get("sampling.pairs_rss_mb", 0.0)
    m["volume.mb_written"] = counts.get("volume.bytes_written", 0.0) / 2**20
    for kind in ("ae", "sae"):
        covered = [mp["covered"] for mp in phase.probe.maps if mp["kind"] == kind]
        m[f"anomaly.covered_voxels_{kind}"] = percentile(covered, 50) if covered else 0.0
    for s in STAGES:
        m[f"pipeline.stage_{s}_s"] = sum(durations[f"pipeline.stage_{s}"])
    m["pipeline.self_s"] = sum(selfs[i] for i in counted if spans[i][0].startswith("pipeline.stage_"))
    for metric, span in (("pipeline.load_cohort_s", "pipeline.load_cohort"),
                         ("phantom.synth_s", "phantom.synth")):
        setup = [s[2] - s[1] for s in spans if s[0] == span and s[4].startswith("setup")]
        m[metric] = percentile(setup, 50) if setup else 0.0
    m["proc.cpu_util"] = phase.cpu_s / phase.wall_s
    traced_ms, untraced_ms = phase.traced_steps(), phase.untraced_steps()
    m["proc.trace_overhead_pct"] = 100.0 * (
        percentile(traced_ms, 50) / percentile(untraced_ms, 50) - 1.0)

    lines = [f"traced steps: {len(traced_ms)}, p50 {percentile(traced_ms, 50):.2f} ms; "
             f"untraced steps: {len(untraced_ms)}, p50 {percentile(untraced_ms, 50):.2f} ms"]
    if steps:
        parts = [k for k in m if k.startswith("nn.") and k.endswith("_ms")]
        parts += ["models.loss_ms", "models.step_self_ms"]
        total = sum(m[k] for k in parts)
        lines.append(f"self times per traced step: nn + models + adam = {total:.2f} ms; "
                     f"traced step mean {per_step(dur_sum['models.step']):.2f} ms")
    for label in sorted(_conv_labels("ae") | _conv_labels("sae")):
        if not flop_sum[label]:
            continue
        ids = [i for i in filter(inside, timed) if spans[i][0] == label]
        nbytes = sum(tracer.notes[i]["bytes"] for i in ids) / n_steps
        flop = flop_sum[label] / n_steps
        secs = self_sum[label] / n_steps
        lines.append(
            f"conv {label}: {flop / 1e9:.4f} GFLOP/step (computed), "
            f"{nbytes / 2**20:.2f} MB/step moved (computed), {1000 * secs:.3f} ms/step, "
            f"{flop / secs / 1e9 if secs else 0.0:.2f} GFLOP/s")
    return m, lines
