import numpy as np
import pytest

from anomvox.nn import Conv2D, ReLU, Sigmoid, Upsample2D
from anomvox.sampling import PairSet


def _pair_set(left: np.ndarray, right: np.ndarray) -> PairSet:
    """PairSet whose i-th pair is (left[i], right[i]): every patch is a
    one-slice volume of its own, paired at its middle pixel."""
    n, _, p, _ = left.shape
    i = np.arange(n)
    rows = np.column_stack([i, n + i, np.zeros(n, int), np.full(n, p // 2), np.full(n, p // 2)])
    volumes = list(np.concatenate([left, right])[:, :, None])
    return PairSet(volumes=volumes, rows=rows, patch_size=p)


@pytest.fixture(scope="session")
def pair_set():
    """Build a pair set for the SAE trainer from two (N, C, p, p) arrays."""
    return _pair_set


@pytest.fixture(scope="session")
def unfolded_sae_decoder():
    """Build the SAE decoder's layers with dec3's upsample as an Upsample2D
    of its own before a plain 3x3 full conv: the stack that the folded
    decoder computes, whose keys its checkpoints hold."""

    def build(c=16):
        def full(cin, cout, k=3):
            return Conv2D(cin, cout, (k, k), (1, 1), (k - 1, k - 1))

        up = [Upsample2D(2), full(c, c)]
        return [full(c, c), ReLU(), full(c, c), ReLU(), *up, ReLU(), full(c, 2, 2), Sigmoid()]

    return build
