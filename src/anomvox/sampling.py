"""Dataset construction: axial slice bands, in-brain patch centers, similar
patch pairs across subjects, and balanced bootstrap control splits.

All sampling is a pure function of (inputs, seed).  Patch eligibility erodes
the brain mask in-plane only (patches are 2-D), so a patch footprint never
leaves the mask or the volume bounds.

Samples are arrays, not per-patch objects.  A slice dataset is one
(N, C, H, W) array.  A patch is its center (z, y, x); a pair dataset is int
rows (subject, partner, z, y, x) into the training volumes, which it
references without copying, and `gather_patches` cuts a batch of windows out
of those volumes when the batch is used.  So a pair set costs 40 bytes per
pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import minimum_filter

from .volume import BrainMask, SubjectMeta, Volume, VolumeError

# Rejection-sampling attempts per split before a control pool is declared
# unbalanceable.
MAX_SPLIT_ATTEMPTS = 10_000


class SamplingError(VolumeError):
    """Invalid sampling request (band too deep, no eligible center, ...)."""


class BalanceError(SamplingError):
    """Bootstrap split constraints could not be met."""


@dataclass(frozen=True, eq=False)
class PairSet:
    """Similar pairs as rows (subject, partner, z, y, x); subject and partner
    index `volumes`, a sequence of same-shape (C, D, H, W) arrays.
    `pairs[idx]` gathers the (left, right) patch batches of the rows idx."""

    volumes: Sequence[np.ndarray]
    rows: np.ndarray
    patch_size: int

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, idx) -> tuple[np.ndarray, np.ndarray]:
        rows = self.rows[idx]
        return self._gather(rows[:, 0], rows[:, 2:]), self._gather(rows[:, 1], rows[:, 2:])

    def _gather(self, subjects: np.ndarray, centers: np.ndarray) -> np.ndarray:
        first, p = self.volumes[0], self.patch_size
        out = np.empty((len(subjects), first.shape[0], p, p), dtype=first.dtype)
        for s in np.unique(subjects):
            sel = subjects == s
            out[sel] = gather_patches(self.volumes[s], *centers[sel].T, p)
        return out


@dataclass(frozen=True)
class BalanceReport:
    train_mean_age: float
    test_mean_age: float
    train_female_fraction: float
    test_female_fraction: float


@dataclass(frozen=True)
class SplitPlan:
    sample_index: int  # 1-based
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    balance: BalanceReport


def slice_band(depth: int, count: int) -> range:
    """Indices of `count` contiguous axial slices centered on depth/2."""
    if count < 1 or count > depth:
        raise SamplingError(f"slice count {count} outside [1, depth={depth}]")
    start = (depth - count) // 2
    return range(start, start + count)


def extract_axial_slices(volume: Volume, count: int) -> np.ndarray:
    """The `count` central axial slices, ascending z, as a (count, C, H, W)
    view of the volume."""
    band = slice_band(volume.dims[0], count)
    return volume.data[:, band.start : band.stop].swapaxes(0, 1)


def eligible_patch_centers(mask: BrainMask, patch_size: int) -> np.ndarray:
    """Mask eroded in-plane by the patch footprint; centers where a patch fits.
    The erosion by a 1 x p x p box is its minimum filter with zeros past the
    border, which runs as one 1-D filter per axis."""
    if patch_size % 2 != 1:
        raise SamplingError(f"patch size must be odd, got {patch_size}")
    return minimum_filter(mask.mask, size=(1, patch_size, patch_size), mode="constant", cval=0)


def gather_patches(data: np.ndarray, z, y, x, patch_size: int) -> np.ndarray:
    """The (n, C, patch, patch) patches of volume data (C, D, H, W) centered
    at (z, y, x), as one C-contiguous array; the index arguments broadcast.

    Centers are not bounds-checked here: a negative window origin would wrap.
    """
    half = patch_size // 2
    windows = sliding_window_view(data, (patch_size, patch_size), axis=(2, 3))
    return np.ascontiguousarray(windows[:, z, y - half, x - half].swapaxes(0, 1))


def extract_patches(
    volume: Volume,
    mask: BrainMask,
    count: int,
    patch_size: int,
    seed: int = 0,
) -> np.ndarray:
    """Uniformly sample `count` patch centers (z, y, x) from the eligible
    region, as a (count, 3) int array.

    Sampling is without replacement while count <= number of eligible centers,
    with replacement otherwise.
    """
    eligible = eligible_patch_centers(mask, patch_size)
    centers = np.argwhere(eligible)
    if len(centers) == 0:
        raise SamplingError(
            f"no eligible patch center in subject {volume.subject_id} "
            f"(mask too thin for patch size {patch_size})"
        )
    rng = np.random.default_rng(seed)
    replace = count > len(centers)
    return centers[rng.choice(len(centers), size=count, replace=replace)]


def build_similar_pairs(
    centers_by_subject: Mapping[str, np.ndarray],
    volumes: Mapping[str, Volume],
    patch_size: int,
    seed: int = 0,
) -> PairSet:
    """Pair every sampled center with the same center in another subject.

    The partner subject is drawn uniformly among the other subjects in
    `volumes`, one draw per center, subjects in sorted order.  Pair count
    equals the total input center count; the pair set references the data
    of `volumes` in sorted order.
    """
    pool = sorted(volumes)
    if len(pool) < 2:
        raise SamplingError("similar pairs need at least two subjects")
    order = sorted(centers_by_subject)
    counts = [len(centers_by_subject[sid]) for sid in order]
    own = np.repeat([pool.index(sid) for sid in order], counts)
    centers = np.concatenate([np.reshape(centers_by_subject[sid], (-1, 3)) for sid in order])
    data = [volumes[sid].data for sid in pool]
    if len({a.shape for a in data}) > 1:
        raise SamplingError("similar pairs need volumes of one shape")
    half = patch_size // 2
    d, h, w = data[0].shape[1:]
    z, y, x = centers.T
    inside = (0 <= z) & (z < d) & (half <= y) & (y < h - half) & (half <= x) & (x < w - half)
    if not inside.all():
        bad = centers[np.argmin(inside)]
        raise SamplingError(f"patch at {tuple(bad.tolist())} leaves the bounds of {(d, h, w)}")
    # One draw among the len(pool) - 1 other subjects per center, skipping
    # the center's own subject: the same stream as a scalar draw per center.
    draw = np.random.default_rng(seed).integers(len(pool) - 1, size=len(own))
    partner = draw + (draw >= own)
    rows = np.column_stack([own, partner, centers]).astype(np.int64)
    return PairSet(volumes=data, rows=rows, patch_size=patch_size)


def _balance(metas: Sequence[SubjectMeta]) -> tuple[float, float]:
    ages = [m.age for m in metas]
    females = sum(1 for m in metas if m.sex == "F")
    return float(np.mean(ages)), females / len(metas)


def bootstrap_split(
    metas: Sequence[SubjectMeta],
    n_samples: int,
    n_train: int,
    n_test: int,
    seed: int,
    age_tolerance: float,
    female_range: tuple[float, float],
) -> list[SplitPlan]:
    """Balanced random partitions of the control pool into train/test.

    A candidate partition is accepted when the train/test mean ages differ by
    at most `age_tolerance` years and each side's female fraction falls in
    `female_range`.  Rejection sampling retries up to MAX_SPLIT_ATTEMPTS times
    per split before raising.
    """
    if any(m.cohort != "control" for m in metas):
        raise SamplingError("bootstrap splits are drawn from controls only")
    if len(metas) != n_train + n_test:
        raise SamplingError(
            f"control pool has {len(metas)} subjects, expected n_train + n_test = "
            f"{n_train + n_test}"
        )
    rng = np.random.default_rng(seed)
    metas = list(metas)
    plans: list[SplitPlan] = []
    for sample_index in range(1, n_samples + 1):
        for _ in range(MAX_SPLIT_ATTEMPTS):
            order = rng.permutation(len(metas))
            train = [metas[i] for i in order[:n_train]]
            test = [metas[i] for i in order[n_train:]]
            train_age, train_f = _balance(train)
            test_age, test_f = _balance(test)
            lo, hi = female_range
            if abs(train_age - test_age) <= age_tolerance and (
                lo <= train_f <= hi and lo <= test_f <= hi
            ):
                plans.append(
                    SplitPlan(
                        sample_index=sample_index,
                        train_ids=tuple(m.subject_id for m in train),
                        test_ids=tuple(m.subject_id for m in test),
                        balance=BalanceReport(train_age, test_age, train_f, test_f),
                    )
                )
                break
        else:
            raise BalanceError(
                f"split {sample_index}: no balanced partition within {MAX_SPLIT_ATTEMPTS} attempts "
                f"(age tolerance {age_tolerance}, female range {female_range})"
            )
    return plans
