"""Versioned model checkpoints: JSON architecture header + raw float payload.

Layout mirrors the MVOL container:

    bytes 0..7    magic b"ANOM0001"
    bytes 8..11   little-endian uint32 header length
    header        UTF-8 JSON: kind, arch, meta, arrays [{name, shape, dtype}]
    payload       arrays concatenated in header order, little-endian

Writes are byte-identical for identical inputs, so retraining with the
same seed reproduces the same file.  checkpoint_id is the first 12 hex digits
of the SHA-256 of the whole file.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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


def _encode(kind: str, arch: dict, meta: dict, arrays: dict[str, np.ndarray]) -> bytes:
    manifest = []
    blobs = []
    for name in sorted(arrays):
        arr = arrays[name]
        dtype = np.dtype(arr.dtype).newbyteorder("<")
        manifest.append({"name": name, "shape": list(arr.shape), "dtype": dtype.str})
        blobs.append(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    header = json.dumps(
        {"kind": kind, "arch": arch, "meta": meta, "arrays": manifest}, sort_keys=True
    ).encode("utf-8")
    return CKPT_MAGIC + struct.pack("<I", len(header)) + header + b"".join(blobs)


def save_checkpoint(
    path: str | Path, kind: str, arch: dict, arrays: dict[str, np.ndarray], meta: dict | None = None
) -> str:
    """Write a checkpoint and return its checkpoint_id."""
    blob = _encode(kind, arch, meta or {}, arrays)
    Path(path).write_bytes(blob)
    return hashlib.sha256(blob).hexdigest()[:12]


def load_checkpoint(path: str | Path) -> Checkpoint:
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:8] != CKPT_MAGIC:
        raise CheckpointError(f"{path}: bad magic, expected {CKPT_MAGIC!r}")
    (header_len,) = struct.unpack("<I", raw[8:12])
    header_end = 12 + header_len
    if len(raw) < header_end:
        raise CheckpointError(f"{path}: declared header length {header_len} overruns file")
    try:
        header = json.loads(raw[12:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: header is not valid JSON: {exc}") from exc

    arrays: dict[str, np.ndarray] = {}
    offset = header_end
    for entry in header["arrays"]:
        dtype = np.dtype(entry["dtype"])
        count = int(np.prod(entry["shape"])) if entry["shape"] else 1
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(raw):
            raise CheckpointError(
                f"{path}: payload for {entry['name']!r} at offset {offset} overruns file"
            )
        arrays[entry["name"]] = (
            np.frombuffer(raw[offset : offset + nbytes], dtype=dtype)
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
