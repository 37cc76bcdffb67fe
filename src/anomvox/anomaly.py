"""Voxel-wise reconstruction-error volumes and their control-based thresholding.

The joint error at a voxel is the root of the summed squared per-channel
reconstruction differences.  Slice models cover the central axial band
intersected with the brain mask; patch models cover the in-plane eroded mask
(where a full patch fits), either assigning each voxel the error of its own
centered patch ("center") or, at every in-mask voxel that some patch covers,
averaging the errors of all covering patches centered in that region
("overlap-mean").

The abnormality threshold is an extreme empirical quantile (default 0.98,
linear interpolation between order statistics) of the pooled error values of
all covered voxels of the training controls.  Binarization is strict:
abnormal means error > threshold.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .artifacts import save_json
from .sampling import eligible_patch_centers, extract_axial_slices, gather_patches, slice_band
from .volume import BrainMask, Volume, VolumeError, load_mvol, save_mvol

AE_BATCH_SLICES = 40
SAE_BATCH_PATCHES = 512


class AnomalyError(VolumeError):
    """Invalid error-map or threshold computation."""


@dataclass(frozen=True, eq=False)
class ErrorMap:
    """Per-voxel joint reconstruction error with its coverage region.

    data is zero outside coverage; only covered voxels carry a defined error.
    """

    subject_id: str
    data: np.ndarray  # (D,H,W) float32, >= 0 on coverage
    coverage: np.ndarray  # (D,H,W) bool
    provenance: str

    def __post_init__(self) -> None:
        if self.data.shape != self.coverage.shape:
            raise AnomalyError("error data and coverage shapes differ")
        self.data.flags.writeable = False
        self.coverage.flags.writeable = False


@dataclass(frozen=True)
class AbnormalityThreshold:
    q: float
    value: float
    source: str
    pool_size: int

    def __post_init__(self) -> None:
        if not (0.0 < self.q < 1.0):
            raise AnomalyError(f"quantile level must be in (0, 1), got {self.q}")
        if self.value < 0:
            raise AnomalyError(f"threshold value must be >= 0, got {self.value}")


@dataclass(frozen=True, eq=False)
class BinaryAnomalyMap:
    subject_id: str
    abnormal: np.ndarray  # (D,H,W) bool, True only inside coverage
    coverage: np.ndarray
    threshold: AbnormalityThreshold

    def __post_init__(self) -> None:
        if (self.abnormal & ~self.coverage).any():
            raise AnomalyError("abnormal voxels must lie inside coverage")
        self.abnormal.flags.writeable = False
        self.coverage.flags.writeable = False


def joint_error(x: np.ndarray, xhat: np.ndarray) -> np.ndarray:
    """Root-sum-of-squares over the leading channel axis of (x - xhat)."""
    if x.shape != xhat.shape:
        raise AnomalyError(f"channel shapes differ: {x.shape} vs {xhat.shape}")
    diff = x.astype(np.float32) - xhat.astype(np.float32)
    return np.sqrt(np.square(diff).sum(axis=0))


def error_volume_ae(model, volume: Volume, mask: BrainMask, band_count: int) -> ErrorMap:
    """Joint error over the central axial slice band, masked to the brain.

    `model` must expose reconstruct(batch) and input_hw matching the volume's
    in-plane size; it reconstructs the band AE_BATCH_SLICES slices at a time.
    """
    d, h, w = volume.dims
    if tuple(model.input_hw) != (h, w):
        raise AnomalyError(
            f"volume slices are {h}x{w} but the checkpoint expects {model.input_hw}"
        )
    band = slice_band(d, band_count)
    zs = slice(band.start, band.stop)
    data = np.zeros(volume.dims, dtype=np.float32)
    coverage = np.zeros(volume.dims, dtype=bool)
    coverage[zs] = mask.mask[zs]
    slices = extract_axial_slices(volume, band_count)
    errors = data[zs]  # a view: writes land in data
    for start in range(0, band_count, AE_BATCH_SLICES):
        batch = np.ascontiguousarray(slices[start : start + AE_BATCH_SLICES])
        recon = model.reconstruct(batch)
        errors[start : start + AE_BATCH_SLICES] = joint_error(batch.swapaxes(0, 1), recon.swapaxes(0, 1))
    data *= coverage
    return ErrorMap(
        subject_id=volume.subject_id, data=data, coverage=coverage, provenance=model.provenance
    )


def error_volume_sae(model, volume: Volume, mask: BrainMask, aggregate: str = "center") -> ErrorMap:
    """Patch-model error volume from the patches centered at the eligible
    voxels, those whose centered patch fits inside the mask.

    center: every eligible voxel gets the joint error of its own centered
    patch reconstruction at the patch center.  The model (the SAE) encodes
    every eligible center of the volume in one slice_center_latents call and
    decodes every latent at once with decode_center_values, so its dense
    center decoder is built once per subject.
    overlap-mean: the model reconstructs the patch at every eligible center,
    SAE_BATCH_PATCHES at a time, and each voxel averages the joint error of
    every covering patch.
    """
    if aggregate not in ("center", "overlap-mean"):
        raise AnomalyError(f"unknown aggregation mode {aggregate!r}")
    p = model.patch_size
    eligible = eligible_patch_centers(mask, p)
    if not eligible.any():
        raise AnomalyError(f"subject {volume.subject_id}: no voxel admits a {p}x{p} patch")

    if aggregate == "center":
        coverage = eligible
        data = np.zeros(volume.dims, dtype=np.float32)
        # The patch center is the voxel itself; one encode and one decode
        # per subject.
        latents = model.slice_center_latents(volume.data, np.argwhere(eligible))
        recon_c = model.decode_center_values(latents)  # (n, C)
        data[eligible] = joint_error(volume.data[:, eligible], recon_c.T)
    else:
        acc = np.zeros(volume.dims, dtype=np.float64)
        cnt = np.zeros(volume.dims, dtype=np.int32)
        half = p // 2
        offsets = np.arange(-half, half + 1)
        width = volume.dims[2]
        for z in range(volume.dims[0]):
            centers = np.argwhere(eligible[z])
            if len(centers) == 0:
                continue
            ys, xs = centers[:, 0], centers[:, 1]
            for start in range(0, len(ys), SAE_BATCH_PATCHES):
                sl = slice(start, start + SAE_BATCH_PATCHES)
                batch = gather_patches(volume.data, z, ys[sl], xs[sl], p)
                recon = model.reconstruct(batch)
                tiles = np.sqrt(np.square(batch - recon).sum(axis=1))  # (n,p,p)
                # Flat in-slice index of every tile pixel, tile-major, so
                # np.add.at sums each voxel's covering tiles in tile order.
                # Values of acc's own dtype keep np.add.at on its fast path.
                rows = ys[sl, None, None] + offsets[None, :, None]
                cols = xs[sl, None, None] + offsets[None, None, :]
                flat = (rows * width + cols).ravel()
                acc_z, cnt_z = acc[z].reshape(-1), cnt[z].reshape(-1)  # views
                np.add.at(acc_z, flat, tiles.ravel().astype(np.float64))
                cnt_z += np.bincount(flat, minlength=cnt_z.size)
        coverage = (cnt > 0) & mask.mask
        np.divide(acc, cnt, out=acc, where=cnt > 0)
        data = acc.astype(np.float32)
        data *= coverage
    return ErrorMap(
        subject_id=volume.subject_id,
        data=data,
        coverage=coverage.copy(),
        provenance=model.provenance,
    )


def interpolated_quantile(values: np.ndarray, q: float) -> float:
    """Empirical quantile with linear interpolation between order statistics.

    position = q * (n - 1); the result interpolates the two bracketing sorted
    values.  Computed in float64.
    """
    if not (0.0 < q < 1.0):
        raise AnomalyError(f"quantile level must be in (0, 1), got {q}")
    v = np.sort(np.asarray(values, dtype=np.float64).reshape(-1))
    n = v.size
    if n == 0:
        raise AnomalyError("empty sample for quantile")
    pos = q * (n - 1)
    j = int(math.floor(pos))
    g = pos - j
    if j + 1 >= n:
        return float(v[-1])
    return float(v[j] + g * (v[j + 1] - v[j]))


def abnormality_threshold(control_maps: Iterable[ErrorMap], q: float) -> AbnormalityThreshold:
    """Quantile threshold over the pooled covered errors of the control maps."""
    pools = []
    provenance = None
    n_maps = 0
    for emap in control_maps:
        pools.append(emap.data[emap.coverage])
        provenance = provenance or emap.provenance
        n_maps += 1
    if not pools:
        raise AnomalyError("no control error maps supplied")
    pooled = np.concatenate(pools)
    if pooled.size == 0:
        raise AnomalyError("control error pool is empty (no covered voxels)")
    value = interpolated_quantile(pooled, q)
    return AbnormalityThreshold(
        q=q,
        value=value,
        source=f"{provenance}|controls={n_maps}",
        pool_size=int(pooled.size),
    )


def binarize(emap: ErrorMap, threshold: AbnormalityThreshold) -> BinaryAnomalyMap:
    """Strictly-greater thresholding; ties count as normal."""
    abnormal = emap.coverage & (emap.data > threshold.value)
    return BinaryAnomalyMap(
        subject_id=emap.subject_id,
        abnormal=abnormal,
        coverage=emap.coverage.copy(),
        threshold=threshold,
    )


# ---------------------------------------------------------------------------
# persistence: 1-channel MVOL with NaN outside coverage, JSON threshold sidecar
# ---------------------------------------------------------------------------


def save_error_map(emap: ErrorMap, path: str | Path) -> None:
    data = np.where(emap.coverage, emap.data, np.float32(np.nan))[None]
    save_mvol(Volume(emap.subject_id, (1.0, 1.0, 1.0), data, (emap.provenance,)), path)


def load_error_map(path: str | Path) -> ErrorMap:
    vol = load_mvol(path)
    if vol.channels != 1:
        raise AnomalyError(f"{path}: error maps are stored with one channel")
    raw = vol.data[0]
    coverage = np.isfinite(raw)
    return ErrorMap(
        subject_id=vol.subject_id,
        data=np.where(coverage, raw, 0.0).astype(np.float32),
        coverage=coverage,
        provenance=vol.channel_names[0],
    )


def save_threshold(threshold: AbnormalityThreshold, path: str | Path) -> None:
    save_json(path, dataclasses.asdict(threshold))


def load_threshold(path: str | Path) -> AbnormalityThreshold:
    return AbnormalityThreshold(**json.loads(Path(path).read_text()))
