"""Multi-channel volume data model and the MVOL container format.

A volume is a float32 scalar field indexed [channel][z][y][x] together with
voxel geometry and subject identity.  Channels carry co-registered parameter
maps (by default FA and MD).  Volumes are frozen after construction: the data
array is marked read-only so instances can be shared across threads.

An MVOL file is the artifacts container with magic b"MVOL0001", a header of
subject_id, dims [D,H,W], channels, channel_names and voxel_size_mm [z,y,x],
and a float32 little-endian payload in C order (channel, z, y, x).  Round
trips are bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .artifacts import pack, save_json, unpack

MVOL_MAGIC = b"MVOL0001"

_HEADER_FIELDS = ("subject_id", "dims", "channels", "channel_names", "voxel_size_mm")


class VolumeError(Exception):
    """Base error for volume construction and I/O."""


class MvolFormatError(VolumeError):
    """Malformed MVOL file; message names the offending field or file offset."""


class DegenerateChannelError(VolumeError):
    """A channel is constant (max == min), so min-max normalization is undefined."""


class EmptyMaskError(VolumeError):
    """A brain mask ended up with zero foreground voxels."""


@dataclass(frozen=True, eq=False)
class Volume:
    """One subject's multi-channel scalar field.

    data has shape (channels, depth, height, width), dtype float32.  The
    array is made read-only on construction; derive modified volumes with
    numpy copies and a new Volume.
    """

    subject_id: str
    voxel_size_mm: tuple[float, float, float]
    data: np.ndarray
    channel_names: tuple[str, ...] = ("FA", "MD")

    def __post_init__(self) -> None:
        if self.data.ndim != 4:
            raise VolumeError(f"volume data must be 4-D (C,D,H,W), got ndim={self.data.ndim}")
        if self.data.dtype != np.float32:
            raise VolumeError(f"volume data must be float32, got {self.data.dtype}")
        if len(self.channel_names) != self.data.shape[0]:
            raise VolumeError(
                f"{len(self.channel_names)} channel names for {self.data.shape[0]} channels"
            )
        if len(self.voxel_size_mm) != 3 or any(v <= 0 for v in self.voxel_size_mm):
            raise VolumeError(f"voxel_size_mm components must be > 0, got {self.voxel_size_mm}")
        self.data.flags.writeable = False

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def dims(self) -> tuple[int, int, int]:
        """(depth, height, width) voxel counts."""
        return self.data.shape[1:]


@dataclass(frozen=True, eq=False)
class BrainMask:
    """Boolean foreground field aligned with a Volume's (depth, height, width)."""

    mask: np.ndarray

    def __post_init__(self) -> None:
        if self.mask.ndim != 3 or self.mask.dtype != bool:
            raise VolumeError("brain mask must be a 3-D boolean field")
        if not self.mask.any():
            raise EmptyMaskError("brain mask has no foreground voxels")
        self.mask.flags.writeable = False

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.mask.shape

    @property
    def count(self) -> int:
        return int(self.mask.sum())


_SEXES = ("F", "M")
_COHORTS = ("control", "patient")


@dataclass(frozen=True)
class SubjectMeta:
    subject_id: str
    age: float
    sex: str
    cohort: str

    def __post_init__(self) -> None:
        if self.age <= 0:
            raise VolumeError(f"age must be > 0, got {self.age} for {self.subject_id}")
        if self.sex not in _SEXES:
            raise VolumeError(f"sex must be one of {_SEXES}, got {self.sex!r}")
        if self.cohort not in _COHORTS:
            raise VolumeError(f"cohort must be one of {_COHORTS}, got {self.cohort!r}")


def save_mvol(volume: Volume, path: str | Path) -> None:
    """Write an MVOL container; load_mvol(save_mvol(v)) is the identity."""
    header = {
        "subject_id": volume.subject_id,
        "dims": list(volume.dims),
        "channels": volume.channels,
        "channel_names": list(volume.channel_names),
        "voxel_size_mm": list(volume.voxel_size_mm),
    }
    payload = np.ascontiguousarray(volume.data, dtype="<f4").reshape(-1).view(np.uint8)
    pack(path, MVOL_MAGIC, header, [payload])


def load_mvol(path: str | Path) -> Volume:
    """Read an MVOL container, validating magic, header fields and payload size."""
    header, raw, header_end = unpack(path, MVOL_MAGIC, _HEADER_FIELDS, MvolFormatError)
    dims = tuple(int(v) for v in header["dims"])
    channels = int(header["channels"])
    if len(dims) != 3 or any(d <= 0 for d in dims) or channels <= 0:
        raise MvolFormatError(f"header field dims/channels invalid: {dims}, {channels}")

    expected = channels * dims[0] * dims[1] * dims[2] * 4
    actual = len(raw) - header_end
    if actual != expected:
        raise MvolFormatError(
            f"payload at offset {header_end}: expected {expected} bytes "
            f"for {channels}x{dims}, found {actual}"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=header_end).reshape((channels, *dims)).copy()
    return Volume(
        subject_id=str(header["subject_id"]),
        voxel_size_mm=tuple(float(v) for v in header["voxel_size_mm"]),
        data=data,
        channel_names=tuple(str(n) for n in header["channel_names"]),
    )


def normalize_channels(volume: Volume) -> Volume:
    """Min-max rescale each channel independently to [0, 1].

    The min and max are taken over the whole channel (per subject), so the
    channel minimum maps to exactly 0 and the maximum to exactly 1.
    Idempotent: a second application is the identity.
    """
    out = np.empty_like(volume.data)
    for c in range(volume.channels):
        chan = volume.data[c]
        lo = float(chan.min())
        hi = float(chan.max())
        if hi == lo:
            raise DegenerateChannelError(
                f"channel {c} ({volume.channel_names[c]}) is constant at {lo}"
            )
        out[c] = (chan - np.float32(lo)) / np.float32(hi - lo)
    return replace(volume, data=out)


def compute_brain_mask(volume: Volume) -> BrainMask:
    """Foreground mask: voxels where any channel exceeds 0."""
    mask = (volume.data > 0).any(axis=0)
    if not mask.any():
        raise EmptyMaskError(f"no voxel of {volume.subject_id} exceeds 0 in any channel")
    return BrainMask(mask=mask)


@dataclass(frozen=True)
class CohortManifest:
    """Subject roster plus relative MVOL paths and generator bookkeeping."""

    subjects: tuple[SubjectMeta, ...]
    paths: dict[str, str] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        ids = [m.subject_id for m in self.subjects]
        if len(set(ids)) != len(ids):
            raise VolumeError("subject_id values must be unique within a cohort manifest")

    def controls(self) -> list[SubjectMeta]:
        return [m for m in self.subjects if m.cohort == "control"]

    def patients(self) -> list[SubjectMeta]:
        return [m for m in self.subjects if m.cohort == "patient"]


def save_manifest(manifest: CohortManifest, path: str | Path) -> None:
    doc = {
        "subjects": [
            {
                "subject_id": m.subject_id,
                "age": m.age,
                "sex": m.sex,
                "cohort": m.cohort,
                "path": manifest.paths.get(m.subject_id, ""),
            }
            for m in manifest.subjects
        ],
        "extra": manifest.extra,
    }
    save_json(path, doc)


def load_manifest(path: str | Path) -> CohortManifest:
    doc = json.loads(Path(path).read_text())
    subjects = []
    paths = {}
    for row in doc["subjects"]:
        meta = SubjectMeta(
            subject_id=row["subject_id"],
            age=float(row["age"]),
            sex=row["sex"],
            cohort=row["cohort"],
        )
        subjects.append(meta)
        paths[meta.subject_id] = row.get("path", "")
    return CohortManifest(subjects=tuple(subjects), paths=paths, extra=doc.get("extra", {}))
