#!/usr/bin/env python3
"""Print `sha256  relative/path` for every file under a run directory,
sorted by path, in the format of `sha256sum`.

Two runs of the same configuration are byte-identical when their listings
diff empty:

    diff <(python scripts/artifact_digests.py a/runs/quick) \\
         <(python scripts/artifact_digests.py b/runs/quick)
"""

import argparse
import hashlib
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("run_dir", type=Path, help="run directory, e.g. runs/quick")
    args = parser.parse_args()
    if not args.run_dir.is_dir():
        parser.error(f"not a directory: {args.run_dir}")
    rels = sorted(p.relative_to(args.run_dir).as_posix() for p in args.run_dir.rglob("*") if p.is_file())
    for rel in rels:
        print(f"{hashlib.sha256((args.run_dir / rel).read_bytes()).hexdigest()}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
