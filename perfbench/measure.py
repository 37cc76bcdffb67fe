"""Benchmark arithmetic: the tail-percentile rule, conv FLOP and byte counts
from layer geometry, and the environment record.

Nothing here imports the program under test, so the tests of this file run
without it.
"""

from __future__ import annotations

import math
import os
import platform
import sys
import time


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default rule), p in [0, 100]."""
    v = sorted(values)
    if not v:
        raise ValueError("percentile of an empty sample")
    pos = p / 100.0 * (len(v) - 1)
    j = math.floor(pos)
    if j + 1 >= len(v):
        return float(v[-1])
    return float(v[j] + (pos - j) * (v[j + 1] - v[j]))


def samples_beyond(n: int, p: float) -> int:
    """Samples ranked strictly above the interpolation position of the p-th
    percentile among n samples."""
    return n - 1 - math.floor(p / 100.0 * (n - 1))


def tail_percentile(n: int, target: int = 90, beyond: int = 10, step: int = 5) -> int:
    """Highest percentile, at most `target` and a multiple of `step`, that
    leaves at least `beyond` of n samples above it; never below the median.

    Rounding down to a multiple of `step` keeps the chosen percentile the same
    for runs whose step counts differ by a few.
    """
    p = target - target % step
    while p > 50 and samples_beyond(n, p) < beyond:
        p -= step
    return p


# ---------------------------------------------------------------------------
# conv cost from geometry
# ---------------------------------------------------------------------------


def conv_cost(
    kind: str,
    batch: int,
    in_channels: int,
    out_channels: int,
    kernel: tuple[int, int],
    in_hw: tuple[int, int],
    out_hw: tuple[int, int],
    itemsize: int = 4,
) -> dict[str, int]:
    """Computed (not measured) FLOPs and bytes of one conv call.

    kind is "conv" (Conv2D) or "conv_transpose" (ConvTranspose2D).  One
    multiply-add counts as 2 FLOPs.  A Conv2D forward does one multiply-add
    per (output pixel, input channel, kernel tap); a transposed conv does one
    per (input pixel, output channel, kernel tap).  The backward pass computes
    both the weight gradient and the data gradient, each as many multiply-adds
    as the forward.  Bias adds are left out.  Bytes count each array the call
    reads or writes once: forward reads x and W and writes y; backward reads
    x, dy and W and writes dx and dW.
    """
    kh, kw = kernel
    if kind == "conv":
        macs = batch * out_channels * out_hw[0] * out_hw[1] * in_channels * kh * kw
    elif kind == "conv_transpose":
        macs = batch * in_channels * in_hw[0] * in_hw[1] * out_channels * kh * kw
    else:
        raise ValueError(f"unknown conv kind {kind!r}")
    x = batch * in_channels * in_hw[0] * in_hw[1]
    y = batch * out_channels * out_hw[0] * out_hw[1]
    w = in_channels * out_channels * kh * kw
    return {
        "fwd_flop": 2 * macs,
        "bwd_flop": 4 * macs,
        "fwd_bytes": itemsize * (x + w + y),
        "bwd_bytes": itemsize * (x + y + w + x + w),
    }


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _cpu_jiffies() -> tuple[int, int] | None:
    """(busy, total) jiffies over all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    idle = fields[3] + (fields[4] if len(fields) > 4 else 0)
    return sum(fields) - idle, sum(fields)


def other_load(window_s: float = 0.5) -> float | None:
    """CPUs kept busy by other processes over a short idle window, or None
    where /proc/stat is unavailable.  This process sleeps meanwhile, so all
    busy time seen belongs to others."""
    a = _cpu_jiffies()
    time.sleep(window_s)
    b = _cpu_jiffies()
    if a is None or b is None or b[1] == a[1]:
        return None
    ncpu = os.cpu_count() or 1
    return ncpu * (b[0] - a[0]) / (b[1] - a[1])


def blas_info() -> dict:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def environment() -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "platform": sys.platform,
    }


def peak_gemm_gflops(n: int = 768, seconds: float = 0.6) -> float:
    """Median rate of an n x n float32 GEMM in this process, GFLOP/s."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.random((n, n), dtype=np.float32)
    b = rng.random((n, n), dtype=np.float32)
    a @ b  # warm-up
    times = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(times) < 5:
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * n**3 / percentile(times, 50) / 1e9
