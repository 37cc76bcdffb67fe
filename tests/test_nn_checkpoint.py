import numpy as np
import pytest

from anomvox.nn import CheckpointError, load_checkpoint, save_checkpoint


def arrays():
    rng = np.random.default_rng(0)
    return {
        "w": rng.normal(size=(3, 2, 3, 3)).astype(np.float32),
        "b": rng.normal(size=3).astype(np.float32),
        "count": np.array([7], dtype=np.int64),
    }


def test_round_trip(tmp_path):
    path = tmp_path / "m.anom"
    cid = save_checkpoint(path, "ae", {"hw": [8, 10]}, arrays(), {"note": "x"})
    ckpt = load_checkpoint(path)
    assert ckpt.kind == "ae"
    assert ckpt.arch == {"hw": [8, 10]}
    assert ckpt.meta == {"note": "x"}
    assert ckpt.checkpoint_id == cid
    for name, arr in arrays().items():
        assert np.array_equal(ckpt.arrays[name], arr)
        assert ckpt.arrays[name].dtype == arr.dtype


def test_byte_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.anom", tmp_path / "b.anom"
    save_checkpoint(p1, "sae", {}, arrays())
    save_checkpoint(p2, "sae", {}, arrays())
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.anom"
    path.write_bytes(b"WRONG!!!" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_missing_header_field(tmp_path):
    header = b'{"arch": {}, "kind": "ae"}'
    path = tmp_path / "h.anom"
    path.write_bytes(b"ANOM0001" + len(header).to_bytes(4, "little") + header)
    with pytest.raises(CheckpointError, match="missing field 'arrays'"):
        load_checkpoint(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.anom"
    save_checkpoint(path, "ae", {}, arrays())
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(CheckpointError, match="overruns"):
        load_checkpoint(path)


def test_trailing_garbage(tmp_path):
    path = tmp_path / "g.anom"
    save_checkpoint(path, "ae", {}, arrays())
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)
