"""The one place files are written, plus the binary container that MVOL
volumes and ANOM checkpoints share.

Every artifact is written to a hidden temporary file next to its target and
then moved over the target with `os.replace`, so a killed run leaves either
the previous file or the complete new one, never a partial file that a later
stage would read.  The next successful write of the same target removes the
temporary file that a killed run left behind.  There is no fsync: this
guards against a killed process, not against power loss.

Container layout:

    bytes 0..7    magic, e.g. b"MVOL0001" or b"ANOM0001"
    bytes 8..11   little-endian uint32 header length in bytes
    header        UTF-8 JSON with sorted keys
    payload       raw array bytes, laid out as the header describes
"""

from __future__ import annotations

import csv
import glob
import hashlib
import io
import json
import os
import struct
from pathlib import Path
from typing import Iterable


def _remove_dead_temps(path: Path) -> None:
    """Remove the temporary files `.NAME.PID.tmp` of `path` whose writer is
    no longer alive; a live writer may still be filling its own."""
    for tmp in path.parent.glob(f".{glob.escape(path.name)}.*.tmp"):
        pid = tmp.name[len(path.name) + 2 : -len(".tmp")]
        if not pid.isdigit():
            continue
        try:
            os.kill(int(pid), 0)
        except (ProcessLookupError, OverflowError):
            tmp.unlink(missing_ok=True)
        except PermissionError:  # alive, but another user's process
            pass


def save_pieces(path: str | Path, pieces: Iterable) -> str:
    """Atomically replace `path` with the byte buffers of `pieces`, written
    in turn; returns the SHA-256 hex digest of the file.  If anything fails
    the temporary file is removed and `path` is left as it was.  After the
    replace, temporary files of `path` left by killed writers are removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for piece in pieces:
                fh.write(piece)
                digest.update(piece)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _remove_dead_temps(path)
    return digest.hexdigest()


def save_text(path: str | Path, text: str) -> None:
    save_pieces(path, [text.encode("utf-8")])


def save_json(path: str | Path, doc) -> None:
    """Indented, key-sorted JSON without a trailing newline."""
    save_text(path, json.dumps(doc, indent=2, sort_keys=True))


def save_csv(path: str | Path, rows: Iterable[Iterable]) -> None:
    """Rows through `csv.writer`, so each line ends in \\r\\n."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    save_text(path, buf.getvalue())


def pack(path: str | Path, magic: bytes, header: dict, payload: Iterable) -> str:
    """Write one container; returns the SHA-256 hex digest of the file."""
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    return save_pieces(path, [magic, struct.pack("<I", len(head)), head, *payload])


def unpack(
    path: str | Path, magic: bytes, fields: Iterable[str], error: type[Exception]
) -> tuple[dict, bytes, int]:
    """Read a container and check its framing and that the header has
    `fields`; returns (header, raw file bytes, payload offset).  Faults
    raise `error`."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"unreadable path {path}: {exc}") from exc
    if len(raw) < 12:
        raise error(f"{path}: file too short ({len(raw)} bytes) for magic + header length")
    if raw[:8] != magic:
        raise error(f"{path}: bad magic at offset 0: {raw[:8]!r}, expected {magic!r}")
    (header_len,) = struct.unpack("<I", raw[8:12])
    if len(raw) < 12 + header_len:
        raise error(f"{path}: declared header length {header_len} overruns file at offset 12")
    try:
        header = json.loads(raw[12 : 12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{path}: header at offset 12 is not valid JSON: {exc}") from exc
    for name in fields:
        if name not in header:
            raise error(f"{path}: header missing field {name!r}")
    return header, raw, 12 + header_len
