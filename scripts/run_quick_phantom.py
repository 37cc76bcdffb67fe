#!/usr/bin/env python3
"""Run the desk-scale phantom experiment and print the headline numbers.

Runs `anomvox run --quick` through the command-line entry point, so a
failure exits 1 or 2 with one `error:` line, then prints a short console
summary of the whole-brain g-means next to the published clinical reference
values.
"""

import argparse
import csv
import sys
import time
from pathlib import Path

from anomvox.cli import main as cli_main
from anomvox.report import CLINICAL_REFERENCE_GMEAN


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/quick", help="output directory")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--resume", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    code = cli_main(
        ["run", "--quick", "--out", args.out, "--seed", str(args.seed)]
        + (["--resume"] if args.resume else [])
    )
    if code:
        return code
    elapsed = time.perf_counter() - t0

    print(f"\ncompleted in {elapsed:.0f}s; results under {args.out}")
    with open(Path(args.out) / "summary" / "bootstrap_summary.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["roi"] == "whole-brain"]
    print("\nwhole-brain g-mean (phantom cohort):")
    for row in rows:
        print(
            f"  {row['model']:>4}: {float(row['mean_gmean']):.3f} "
            f"+/- {float(row['std_gmean']):.3f} over {row['n_samples']} splits "
            f"(best {float(row['best_gmean']):.3f})"
        )
    print("\nclinical reference (restricted cohort, not reproducible at desk scale):")
    for model, (mean, std) in sorted(CLINICAL_REFERENCE_GMEAN.items()):
        print(f"  {model:>4}: {mean / 100:.3f} +/- {std / 100:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
