"""Adam optimizer with bias correction, operating on named parameter dicts."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class NonFiniteGradientError(Exception):
    """A gradient contained NaN or infinity; the update is refused."""


@dataclass
class AdamState:
    learning_rate: float = 1e-3
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update, applied to the parameter arrays in place.

    Moment buffers are allocated lazily on the first step.  Raises
    NonFiniteGradientError before touching any parameter if a gradient is not
    finite.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient in {name}")
        if g.shape != params[name].shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {params[name].shape} ({name})")

    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, p in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * np.square(g)
        mhat = m / bc1
        vhat = v / bc2
        p -= (state.learning_rate * mhat / (np.sqrt(vhat) + EPS)).astype(p.dtype)
    return params, state
