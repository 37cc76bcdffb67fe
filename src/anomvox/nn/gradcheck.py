"""Finite-difference verification of analytic parameter gradients.

Works on a model exposing params(), state(), set_state(), loss_and_grads(batch)
and loss_only(batch), such as AEModel or SAEModel, built in float64.

Large tensors are subsampled (seeded) rather than swept exhaustively; the
analytic side is still the full backward pass, so every layer's chain is
exercised.  Batch-norm running statistics are snapshotted and restored so the
check leaves the model state untouched.

The relative-error denominator is floored at `zero_scale`: directions whose
gradient magnitude falls below it (dead ReLU channels, for instance) carry no
usable signal, and their central-difference estimate is pure float64 roundoff
(about eps * |loss| / h), which must not register as disagreement.  The step
h is small because the objectives are piecewise smooth: a ReLU gate or an
L1 sign flip inside the stencil corrupts the estimate, and the probability of
that scales with h while roundoff stays orders below the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GradCheckReport:
    per_param: dict[str, float]
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance


def _rel_err(a: float, n: float, zero_scale: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), zero_scale)


def grad_check(
    model,
    batch,
    tolerance: float = 1e-4,
    h: float = 1e-7,
    samples_per_param: int = 10,
    seed: int = 0,
    zero_scale: float = 1e-2,
) -> GradCheckReport:
    params = model.params()
    for name, p in params.items():
        if p.dtype != np.float64:
            raise ValueError(f"grad_check needs float64 parameters, {name} is {p.dtype}")

    snapshot = {k: v.copy() for k, v in model.state().items()}
    _, analytic = model.loss_and_grads(batch)

    rng = np.random.default_rng(seed)
    per_param: dict[str, float] = {}
    for name, p in params.items():
        flat = p.reshape(-1)
        n = flat.size
        picks = np.arange(n) if n <= samples_per_param else rng.choice(n, samples_per_param, False)
        worst = 0.0
        ga = analytic[name].reshape(-1)
        for i in picks:
            orig = flat[i]
            flat[i] = orig + h
            lp = model.loss_only(batch)
            flat[i] = orig - h
            lm = model.loss_only(batch)
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * h)
            worst = max(worst, _rel_err(float(ga[i]), float(numeric), zero_scale))
        per_param[name] = worst

    model.set_state(snapshot)
    return GradCheckReport(
        per_param=per_param,
        max_rel_err=max(per_param.values()) if per_param else 0.0,
        tolerance=tolerance,
    )
