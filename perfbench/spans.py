"""In-memory span recorder and self-time arithmetic.

A span is (name, start, end, parent, run id).  Spans nest by a stack, so the
parent of a span is whatever span was open when it began.  The recorder keeps
everything in memory; write() dumps it once the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1, run id].
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        # Per-span work counts (FLOPs, bytes), keyed by span index.
        self.notes: dict[int, dict[str, int]] = {}
        self.run_id = "setup"
        # While False, begin() records nothing unless forced.
        self.enabled = True
        self._stack: list[int] = []

    def begin(self, name: str, force: bool = False) -> int | None:
        if not (self.enabled or force):
            return None
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.run_id])
        self._stack.append(idx)
        return idx

    def end(self, idx: int | None) -> None:
        """Close span idx and any span still open inside it."""
        if idx is None:
            return
        now = perf_counter()
        while self._stack:
            top = self._stack.pop()
            if self.spans[top][2] is None:
                self.spans[top][2] = now
            if top == idx:
                return

    def count(self, name: str, value: float) -> None:
        self.counts[(self.run_id, name)] += value

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            if idx is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                doc = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "run": run_id}
                doc.update(self.notes.get(i, {}))
                fh.write(json.dumps(doc) + "\n")
            for (run_id, name), value in sorted(self.counts.items()):
                fh.write(json.dumps({"count": name, "run": run_id, "value": value}) + "\n")


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered_length(children.get(i, ()), start, end)
        for i, (name, start, end, parent, _) in enumerate(spans)
    ]
