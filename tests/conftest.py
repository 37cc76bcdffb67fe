import numpy as np
import pytest

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
