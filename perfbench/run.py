"""anomvox benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload sae-train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory.  The last line of standard output is one JSON object with
keys correct, attempted, failed and metrics: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run.  The exit code
is 0 when every output check passed, 1 when one failed, 2 when the workload
could not run.  Working files live under .bench_work/ and are removed; a
record of the run (environment, checks, metrics; spans when traced) is kept
under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

import measure
from measure import percentile, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# workloads.WORKLOADS, named here so that parsing arguments does not import
# numpy before the BLAS thread limits are set.
WORKLOAD_NAMES = ("sae-train", "ae-train", "maps")
# Other processes keeping more than this many CPUs busy just before the run
# mark the run as contended.
CONTENDED_CPUS = 0.5


def seed_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def limit_blas_threads() -> None:
    """At most one BLAS thread per CPU; must run before numpy is imported."""
    n = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, n))
        except ValueError:
            current = n
        os.environ[var] = str(max(1, min(current, n)))


def import_program() -> None:
    sys.path.insert(0, str(SRC))
    import anomvox

    found = Path(anomvox.__file__).resolve().parent
    if found != (SRC / "anomvox").resolve():
        raise ImportError(f"anomvox imported from {found}, not from {SRC}")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from layer_metrics import layer_metrics
    from probes import LayerLabels, Patcher, instrument_setup
    from spans import Tracer
    from workloads import SETUP_REPEATS, WORKLOADS, choose_inputs, timed_phase

    wl = WORKLOADS[name]
    work = ROOT / ".bench_work" / f"{name}-seed{seed}-{os.getpid()}"
    tracer = Tracer() if trace else None
    labels = LayerLabels()
    try:
        cfg = choose_inputs(wl.config(work / "run", seed))
        setups = []
        for i in range(SETUP_REPEATS):
            patcher = Patcher()
            if tracer is not None:
                tracer.run_id = f"setup.{i}"
                instrument_setup(patcher, tracer)
            t0 = perf_counter()
            try:
                state = wl.setup(cfg)
            finally:
                patcher.restore()
            setups.append(perf_counter() - t0)
        t0 = perf_counter()
        wl.prepare(state)
        setup_s = percentile(setups, 50) + (perf_counter() - t0)

        if tracer is not None:
            tracer.run_id = "timed"
        phase = timed_phase(wl, state, seconds, tracer, labels)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checks = wl.check(state, phase, seed)
        quality = wl.quality(state, phase)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    steps = phase.untraced_steps()
    p_tail = tail_percentile(len(steps))
    e2e = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (phase.items / phase.wall_s, "1/s"),
        "step_ms_p50": (percentile(steps, 50), "ms"),
        "step_ms_p90": (percentile(steps, p_tail), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"inputs: run seed {cfg.seed} for --seed {seed}",
        f"timed phase: {phase.wall_s:.2f} s wall, {phase.items} {wl.item}s, "
        f"{len(steps)} untraced steps measured",
        f"step_ms_p90 is the p{p_tail} of {len(steps)} steps (at least 10 beyond it)",
        f"setup_s: median of {SETUP_REPEATS} set-ups {['%.3f' % s for s in setups]} "
        f"plus {setup_s - percentile(setups, 50):.3f} s of one-off preparation",
    ]
    layers, layer_lines = {}, []
    if tracer is not None:
        gemm = measure.peak_gemm_gflops()
        layers, layer_lines = layer_metrics(tracer, phase, gemm)
        notes.append(f"traced run: step figures cover the {len(steps)} untraced steps; "
                     f"items_per_s covers the whole phase, traced steps included")
        tracer.write(ROOT / ".bench_out" / f"{name}-seed{seed}.spans.jsonl")
    return wl, e2e, quality, checks, notes, steps, layers, layer_lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=seed_arg, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "anomvox" / "__init__.py").is_file():
        print(f"error: no anomvox source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    limit_blas_threads()
    load_before = os.getloadavg()[0]
    others = measure.other_load()
    try:
        import_program()
        env = measure.environment()
        wl, e2e, quality, checks, notes, steps, layers, layer_lines = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        print(f"error: workload {args.workload} did not complete", file=sys.stderr)
        return 2
    load_after = os.getloadavg()[0]

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    env.update({
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": load_after,
        "other_cpus_busy_at_start": others,
        "contended": others is not None and others > CONTENDED_CPUS,
    })
    print(f"workload {wl.name}: {wl.why}")
    print("env " + json.dumps(env, sort_keys=True))
    if env["contended"]:
        print(f"WARNING: other processes kept {others:.2f} CPUs busy when the run started")
    for line in notes:
        print(line)
    for c in checks:
        status = "FAIL" if c.failed else "ok"
        print(f"check {status}: {c.name} ({c.failed}/{c.attempted} failed) {c.detail}".rstrip())
    print(f"{'end-to-end':<28}{'value':>16}  unit")
    for name, (value, unit) in e2e.items():
        print(f"{name:<28}{value:>16.6g}  {unit}")
    for name, (value, unit) in quality.items():
        print(f"{name:<28}{value:>16.6g}  {unit}")
    print(f"{'fail_frac':<28}{failed / attempted:>16.6g}  fraction")

    if args.trace:
        from layer_metrics import per_layer_names

        units = {n: u for n, u, _ in per_layer_names()}
        for line in layer_lines:
            print(line)
        for name, value in layers.items():
            print(f"{name:<40}{value:>16.6g}  {units[name]}")
        metrics = {n: {"value": layers[n], "unit": u} for n, u, _ in per_layer_names()}
    else:
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in e2e.items()}

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "notes": notes, "steps_ms": steps,
        "checks": [c.__dict__ for c in checks],
        "quality": {n: {"value": v, "unit": u} for n, (v, u) in quality.items()},
        "end_to_end": {n: v for n, (v, _) in e2e.items()}, "per_layer": layers,
    }
    out = ROOT / ".bench_out" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
