"""Finite-difference verification of analytic parameter gradients.

Works on a model exposing params(), state(), set_state() and
loss_and_grads(batch), such as AEModel or SAEModel, built in float64.  The
analytic gradients are copied from one loss_and_grads call; every
finite-difference probe is the loss of a further call, the same training
forward, whose gradients are thrown away.

Large tensors are subsampled (seeded) rather than swept exhaustively; the
analytic side is still the full backward pass, so every layer's chain is
exercised.  Batch-norm running statistics are snapshotted and restored so the
check leaves the model state untouched.

The relative-error denominator is floored at ZERO_SCALE: directions whose
gradient magnitude falls below it (dead ReLU channels, for instance) carry no
usable signal, and their central-difference estimate is pure float64 roundoff
(about eps * |loss| / STEP), which must not register as disagreement.  The
finite-difference STEP is small because the objectives are piecewise smooth: a ReLU gate or an
L1 sign flip inside the stencil corrupts the estimate, and the probability of
that scales with STEP while roundoff stays orders below the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STEP = 1e-7
ZERO_SCALE = 1e-2


@dataclass(frozen=True)
class GradCheckReport:
    per_param: dict[str, float]
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), ZERO_SCALE)


def grad_check(
    model,
    batch,
    tolerance: float = 1e-4,
    samples_per_param: int = 10,
    seed: int = 0,
) -> GradCheckReport:
    params = model.params()
    for name, p in params.items():
        if p.dtype != np.float64:
            raise ValueError(f"grad_check needs float64 parameters, {name} is {p.dtype}")

    snapshot = {k: v.copy() for k, v in model.state().items()}
    analytic = {k: v.copy() for k, v in model.loss_and_grads(batch)[1].items()}

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
            flat[i] = orig + STEP
            lp = model.loss_and_grads(batch)[0]
            flat[i] = orig - STEP
            lm = model.loss_and_grads(batch)[0]
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * STEP)
            worst = max(worst, _rel_err(float(ga[i]), float(numeric)))
        per_param[name] = worst

    model.set_state(snapshot)
    return GradCheckReport(
        per_param=per_param,
        max_rel_err=max(per_param.values()) if per_param else 0.0,
        tolerance=tolerance,
    )
