"""Versioned model checkpoints.

A checkpoint is the artifacts container with magic b"ANOM0001", a header of
kind, arch, meta and an array manifest [{name, shape, dtype}], and the arrays
concatenated in manifest order, little-endian.

Writes are byte-identical for identical inputs, so retraining with the
same seed reproduces the same file.  checkpoint_id is the first 12 hex digits
of the SHA-256 of the whole file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..artifacts import pack, unpack

CKPT_MAGIC = b"ANOM0001"


class CheckpointError(Exception):
    """Malformed checkpoint file."""


@dataclass(frozen=True)
class Checkpoint:
    kind: str
    arch: dict
    meta: dict
    arrays: dict[str, np.ndarray]
    checkpoint_id: str


def save_checkpoint(
    path: str | Path, kind: str, arch: dict, arrays: dict[str, np.ndarray], meta: dict | None = None
) -> str:
    """Write a checkpoint and return its checkpoint_id."""
    manifest = []
    payload = []
    for name in sorted(arrays):
        arr = arrays[name]
        dtype = np.dtype(arr.dtype).newbyteorder("<")
        manifest.append({"name": name, "shape": list(arr.shape), "dtype": dtype.str})
        payload.append(np.ascontiguousarray(arr, dtype=dtype).reshape(-1).view(np.uint8))
    header = {"kind": kind, "arch": arch, "meta": meta or {}, "arrays": manifest}
    return pack(path, CKPT_MAGIC, header, payload)[:12]


def load_checkpoint(path: str | Path) -> Checkpoint:
    header, raw, offset = unpack(path, CKPT_MAGIC, ("kind", "arch", "arrays"), CheckpointError)
    arrays: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        dtype = np.dtype(entry["dtype"])
        count = int(np.prod(entry["shape"])) if entry["shape"] else 1
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(raw):
            raise CheckpointError(
                f"{path}: payload for {entry['name']!r} at offset {offset} overruns file"
            )
        arrays[entry["name"]] = (
            np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
            .reshape(entry["shape"])
            .copy()
        )
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes after payload")
    return Checkpoint(
        kind=header["kind"],
        arch=header["arch"],
        meta=header.get("meta", {}),
        arrays=arrays,
        checkpoint_id=hashlib.sha256(raw).hexdigest()[:12],
    )
