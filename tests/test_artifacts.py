"""The artifact layer: atomic replacement, the shared container framing, and
guards that every file write and every directory the package makes go
through it."""

import ast
import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

import anomvox
from anomvox import artifacts
from anomvox.evaluation import RoiScoreTable, load_score_table, save_score_table
from anomvox.volume import MvolFormatError, Volume, load_mvol, save_mvol

PACKAGE = Path(anomvox.__file__).parent


class Boom(Exception):
    pass


def leftovers(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir() if p.name.startswith("."))


def failing_after(*pieces):
    yield from pieces
    raise Boom


class TestSavePieces:
    def test_failure_keeps_previous_bytes(self, tmp_path):
        path = tmp_path / "a.json"
        artifacts.save_text(path, "old")
        with pytest.raises(Boom):
            artifacts.save_pieces(path, failing_after(b"half of the ", b"new con"))
        assert path.read_text() == "old"
        assert leftovers(tmp_path) == []

    def test_failure_leaves_no_file(self, tmp_path):
        with pytest.raises(Boom):
            artifacts.save_pieces(tmp_path / "b.csv", failing_after(b"partial"))
        assert list(tmp_path.iterdir()) == []

    def test_temp_name_hidden_and_foreign(self, tmp_path):
        seen = []

        def pieces():
            yield b"x"
            seen.extend(tmp_path.iterdir())

        path = tmp_path / "m.mvol"
        digest = artifacts.save_pieces(path, pieces())
        (tmp,) = seen
        assert tmp.name.startswith(".")
        for pattern in ("*.mvol", "*.anom", "*.csv", "*.svg", "*.json"):
            assert not tmp.match(pattern)
        assert path.read_bytes() == b"x" and leftovers(tmp_path) == []
        assert digest == hashlib.sha256(b"x").hexdigest()

    def test_missing_directories_created(self, tmp_path):
        path = tmp_path / "run" / "splits" / "split_01" / "maps" / "s0.txt"
        artifacts.save_text(path, "x")
        assert path.read_text() == "x"
        assert leftovers(path.parent) == []

    def test_killed_writers_temp_removed(self, tmp_path):
        # A writer killed before its replace leaves .NAME.PID.tmp behind.
        # 2**22 + 1 is above the largest PID Linux hands out.
        path = tmp_path / "scores.csv"
        dead = tmp_path / f".scores.csv.{2**22 + 1}.tmp"
        live = tmp_path / f".scores.csv.{os.getppid()}.tmp"
        other = tmp_path / f".other.csv.{2**22 + 1}.tmp"
        for planted in (dead, live, other):
            planted.write_bytes(b"half")
        artifacts.save_text(path, "done")
        assert path.read_text() == "done"
        assert leftovers(tmp_path) == sorted([live.name, other.name])


class TestHelpers:
    def test_json_has_no_trailing_newline(self, tmp_path):
        artifacts.save_json(tmp_path / "d.json", {"b": 1, "a": [1, 2]})
        assert (tmp_path / "d.json").read_bytes() == b'{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}'

    def test_csv_rows_end_crlf(self, tmp_path):
        artifacts.save_csv(tmp_path / "t.csv", [["epoch", "loss"], [1, "0.5"]])
        assert (tmp_path / "t.csv").read_bytes() == b"epoch,loss\r\n1,0.5\r\n"


class TestContainer:
    def test_round_trip_and_digest(self, tmp_path):
        path = tmp_path / "c.bin"
        digest = artifacts.pack(path, b"TEST0001", {"k": [1, 2]}, [b"ab", b"cd"])
        raw = path.read_bytes()
        assert digest == hashlib.sha256(raw).hexdigest()
        header, raw2, offset = artifacts.unpack(path, b"TEST0001", ["k"], MvolFormatError)
        assert header == {"k": [1, 2]} and raw2 == raw and raw[offset:] == b"abcd"

    @pytest.mark.parametrize(
        "blob, message",
        [
            (b"TEST00", "too short"),
            (b"WRONG!!!\x00\x00\x00\x00", "magic"),
            (b"TEST0001\xff\x00\x00\x00{}", "overruns"),
            (b"TEST0001\x02\x00\x00\x00{]", "not valid JSON"),
            (b"TEST0001\x02\x00\x00\x00{}", "missing field 'k'"),
        ],
    )
    def test_framing_errors_use_callers_class(self, tmp_path, blob, message):
        path = tmp_path / "bad.bin"
        path.write_bytes(blob)
        with pytest.raises(MvolFormatError, match=message):
            artifacts.unpack(path, b"TEST0001", ["k"], MvolFormatError)


class TestPublicWritersAreAtomic:
    def test_save_mvol_failing_mid_payload(self, tmp_path, monkeypatch):
        path = tmp_path / "v.mvol"
        old = Volume("s0", (1.0, 1.0, 1.0), np.zeros((1, 2, 3, 4), dtype=np.float32), ("a",))
        save_mvol(old, path)
        before = path.read_bytes()

        class FailingDigest:
            """Lets the magic, length and header through, then fails on the
            payload, after they were written to the temporary file."""

            def __init__(self):
                self.calls = 0

            def update(self, piece):
                self.calls += 1
                if self.calls == 4:
                    raise Boom

            def hexdigest(self):
                return ""

        monkeypatch.setattr(artifacts.hashlib, "sha256", FailingDigest)
        new = Volume("s1", (1.0, 1.0, 1.0), np.ones((1, 2, 3, 4), dtype=np.float32), ("a",))
        with pytest.raises(Boom):
            save_mvol(new, path)
        assert path.read_bytes() == before
        assert load_mvol(path).subject_id == "s0"
        assert leftovers(tmp_path) == []

    def test_save_score_table_failing_at_replace(self, tmp_path, monkeypatch):
        path = tmp_path / "scores.csv"
        table = RoiScoreTable(("s0",), ("control",), ("whole-brain",), np.array([[1.5]]))
        save_score_table(table, path)
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise Boom

        monkeypatch.setattr(artifacts.os, "replace", failing_replace)
        changed = RoiScoreTable(("s0",), ("control",), ("whole-brain",), np.array([[9.0]]))
        with pytest.raises(Boom):
            save_score_table(changed, path)
        assert path.read_bytes() == before
        assert load_score_table(path).values[0, 0] == 1.5
        assert leftovers(tmp_path) == []


def _calls(path: Path):
    """(call node, called name) for every call in `path`."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            yield node, func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _write_sites(path: Path) -> list[str]:
    """Lines of `path` that write a file without the artifact layer:
    write_text, write_bytes, or open() with a w/a/x/+ mode."""
    found = []
    for node, name in _calls(path):
        if name in ("write_text", "write_bytes"):
            found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}: {name}(")
        elif name == "open":
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            modes += node.args[1:2] if isinstance(node.func, ast.Name) else node.args[:1]
            for mode in modes:
                if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                    found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}: write-mode open(")
    return found


def test_every_write_goes_through_artifacts():
    sites = [
        site
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "artifacts.py" or path.parent != PACKAGE
        for site in _write_sites(path)
    ]
    assert sites == [], "files written outside anomvox.artifacts:\n" + "\n".join(sites)


def test_every_directory_made_by_artifacts():
    # save_pieces makes its target's directory; no other module makes one.
    sites = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}: {name}("
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "artifacts.py" or path.parent != PACKAGE
        for node, name in _calls(path)
        if name in ("mkdir", "makedirs")
    ]
    assert sites == [], "directories made outside anomvox.artifacts:\n" + "\n".join(sites)
