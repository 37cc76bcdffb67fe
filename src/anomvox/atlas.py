"""Label atlases: integer region volumes with name tables, plus the synthetic
atlases used with the phantom cohort.

An atlas is stored as a pair of files: the label volume in a one-channel MVOL
container (labels are small integers, exactly representable in float32) and a
JSON name table.  Arbitrary external label volumes in the same canonical grid
are accepted the same way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import save_json
from .phantom import ellipsoid_support
from .volume import Volume, VolumeError, load_mvol, save_mvol


class AtlasError(VolumeError):
    """Malformed atlas (labels without names, dim mismatch, ...)."""


@dataclass(frozen=True, eq=False)
class LabelAtlas:
    atlas_id: str
    labels: np.ndarray  # (D,H,W) int32, 0 = background
    names: dict[int, str]

    def __post_init__(self) -> None:
        if self.labels.ndim != 3:
            raise AtlasError("atlas labels must be a 3-D integer field")
        present = set(np.unique(self.labels).tolist()) - {0}
        missing = present - set(self.names)
        if missing:
            raise AtlasError(f"atlas {self.atlas_id}: labels {sorted(missing)} have no name")
        self.labels.flags.writeable = False

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.labels.shape

    def regions(self) -> list[tuple[int, str]]:
        """(label, name) pairs in ascending label order."""
        return sorted(self.names.items())


def save_atlas(atlas: LabelAtlas, labels_path: str | Path, names_path: str | Path) -> None:
    labels = atlas.labels.astype(np.float32)[None]
    save_mvol(Volume(atlas.atlas_id, (1.0, 1.0, 1.0), labels, ("labels",)), labels_path)
    save_json(
        names_path,
        {"atlas_id": atlas.atlas_id, "names": {str(k): v for k, v in atlas.names.items()}},
    )


def load_atlas(labels_path: str | Path, names_path: str | Path) -> LabelAtlas:
    vol = load_mvol(labels_path)
    if vol.channels != 1:
        raise AtlasError(f"{labels_path}: atlas label volumes have one channel")
    raw = vol.data[0]
    labels = np.rint(raw).astype(np.int32)
    if not np.allclose(raw, labels):
        raise AtlasError(f"{labels_path}: label volume holds non-integer values")
    doc = json.loads(Path(names_path).read_text())
    names = {int(k): str(v) for k, v in doc["names"].items()}
    return LabelAtlas(atlas_id=doc["atlas_id"], labels=labels, names=names)


def make_octant_atlas(dims: tuple[int, int, int]) -> LabelAtlas:
    """Eight macro-regions: the brain support split into its octants."""
    support = ellipsoid_support(dims)
    center = [(d - 1) / 2.0 for d in dims]
    zz, yy, xx = np.ogrid[0 : dims[0], 0 : dims[1], 0 : dims[2]]
    octant = (
        (zz > center[0]).astype(np.int32) * 4
        + (yy > center[1]).astype(np.int32) * 2
        + (xx > center[2]).astype(np.int32)
    )
    labels = np.where(support, octant + 1, 0).astype(np.int32)
    names = {i + 1: f"octant-{i + 1}" for i in range(8)}
    return LabelAtlas(atlas_id="macro", labels=labels, names=names)


def make_core_atlas(dims: tuple[int, int, int], inplane_margin: int) -> LabelAtlas:
    """Eight small spherical structures around the volume center, of radius
    max(2, min(dims) / 16) voxels.

    Stand-ins for deep subcortical regions.  Sphere centers sit at the corner
    offsets of an inner box chosen so every sphere stays inside the brain
    support even after the in-plane patch erosion (`inplane_margin` voxels,
    the patch half-width); this keeps all regions reachable by patch-level
    coverage.  Raises when the volume is too small for that geometry.
    """
    semi = np.array([0.92 * (d - 1) / 2.0 for d in dims])
    radius = max(2.0, min(dims) / 16.0)
    oz = max(radius + 1.0, 0.35 * semi[0])
    shrink = float(np.sqrt(max(0.0, 1.0 - ((oz + radius) / semi[0]) ** 2)))
    # In-plane half-extent still available after the patch erosion, at the
    # sphere's off-center slice.  Offsets must leave room for disjoint spheres
    # (>= radius + 1 apart from the mirrored corner) inside that extent.
    avail = semi[1:] * shrink - inplane_margin
    if oz + radius >= semi[0] or (avail < 2 * radius + 2).any():
        raise AtlasError(
            f"dims {dims} too small to place 8 core regions of radius {radius:.1f} "
            f"inside the eroded brain support (margin {inplane_margin})"
        )
    oy = float(np.clip(0.55 * avail[0], radius + 1.0, avail[0] - radius - 1.0))
    ox = float(np.clip(0.55 * avail[1], radius + 1.0, avail[1] - radius - 1.0))
    center = np.array([(d - 1) / 2.0 for d in dims])
    offset = np.array([oz, oy, ox])
    labels = np.zeros(dims, dtype=np.int32)
    zz, yy, xx = np.ogrid[0 : dims[0], 0 : dims[1], 0 : dims[2]]
    label = 0
    for sz in (-1, 1):
        for sy in (-1, 1):
            for sx in (-1, 1):
                label += 1
                c = center + np.array([sz, sy, sx]) * offset
                ball = (zz - c[0]) ** 2 + (yy - c[1]) ** 2 + (xx - c[2]) ** 2 <= radius**2
                labels[ball] = label
    names = {i + 1: f"core-{i + 1}" for i in range(8)}
    return LabelAtlas(atlas_id="micro", labels=labels, names=names)
