"""Run one workload once per seed, one run at a time, and summarize each
metric over the runs:

    python3 perfbench/sweep.py --workload maps --seeds 1-10 --seconds 20

For every metric, and for the values a run prints without gating them
(final_loss, lesion_ratio, fail_frac), it prints the median, the first and
third quartiles as statistics.quantiles(values, n=4) gives them, and the
quartile spread as a share of the median.  --out FILE also writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n", file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        doc = json.loads(lines[-1])
        record = json.loads((HERE.parent / ".bench_out" /
                             f"{args.workload}-seed{seed}-trace{args.trace}.json").read_text())
        fail_frac = {"value": doc["failed"] / doc["attempted"], "unit": "fraction"}
        runs.append({"metrics": {**doc["metrics"], **record["quality"], "fail_frac": fail_frac}})
        flag = " CONTENDED" if record["env"]["contended"] else ""
        print(f"seed {seed}: {wall:.1f} s, attempted {doc['attempted']}, "
              f"failed {doc['failed']}{flag}", flush=True)

    summary = summarize(runs)
    for name, s in summary.items():
        print(f"{name:<40} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {100 * s['spread']:.2f}%  {s['unit']}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
