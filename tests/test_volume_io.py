import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomvox.volume import (
    DegenerateChannelError,
    EmptyMaskError,
    MvolFormatError,
    Volume,
    compute_brain_mask,
    load_mvol,
    normalize_channels,
    save_mvol,
)


def make_volume(data, subject_id="s0"):
    names = tuple(f"ch{i}" for i in range(data.shape[0]))
    return Volume(subject_id=subject_id, voxel_size_mm=(1.5, 1.5, 1.5), data=data, channel_names=names)


def random_volume(rng, shape=(2, 4, 5, 6)):
    return make_volume(rng.random(shape, dtype=np.float32))


class TestMvolRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        vol = random_volume(np.random.default_rng(0))
        path = tmp_path / "v.mvol"
        save_mvol(vol, path)
        back = load_mvol(path)
        assert back.subject_id == vol.subject_id
        assert back.voxel_size_mm == vol.voxel_size_mm
        assert back.channel_names == vol.channel_names
        assert back.data.tobytes() == vol.data.tobytes()

    def test_round_trip_bytes_stable(self, tmp_path):
        vol = random_volume(np.random.default_rng(1))
        p1, p2 = tmp_path / "a.mvol", tmp_path / "b.mvol"
        save_mvol(vol, p1)
        save_mvol(load_mvol(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_canonical_file_size(self, tmp_path):
        # 2 channels of 121x145x121 float32 voxels.
        payload = 2 * 121 * 145 * 121 * 4
        assert payload == 16_983_560
        data = np.zeros((2, 121, 145, 121), dtype=np.float32)
        path = tmp_path / "canon.mvol"
        save_mvol(make_volume(data), path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<I", raw[8:12])
        assert len(raw) == 12 + header_len + payload

    def test_payload_length_mismatch(self, tmp_path):
        vol = random_volume(np.random.default_rng(2))
        path = tmp_path / "v.mvol"
        save_mvol(vol, path)
        raw = path.read_bytes()
        # Declare 2 channels but keep a payload sized for 1.
        (header_len,) = struct.unpack("<I", raw[8:12])
        payload = raw[12 + header_len :]
        path.write_bytes(raw[: 12 + header_len] + payload[: len(payload) // 2])
        with pytest.raises(MvolFormatError, match="payload"):
            load_mvol(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mvol"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(MvolFormatError, match="magic"):
            load_mvol(path)

    def test_missing_header_field(self, tmp_path):
        header = json.dumps({"dims": [1, 1, 1], "channels": 1}).encode()
        blob = b"MVOL0001" + struct.pack("<I", len(header)) + header + b"\x00" * 4
        path = tmp_path / "partial.mvol"
        path.write_bytes(blob)
        with pytest.raises(MvolFormatError, match="missing field"):
            load_mvol(path)

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(MvolFormatError, match="unreadable"):
            load_mvol(tmp_path / "nope.mvol")


class TestNormalize:
    def test_affine_map(self):
        data = np.array([0.0, 5.0, 10.0], dtype=np.float32).reshape(1, 1, 1, 3)
        out = normalize_channels(make_volume(data))
        assert np.array_equal(out.data.reshape(-1), [0.0, 0.5, 1.0])

    def test_unit_range_unchanged(self):
        data = np.array([0.0, 0.25, 1.0], dtype=np.float32).reshape(1, 1, 1, 3)
        out = normalize_channels(make_volume(data))
        assert np.array_equal(out.data, data)

    def test_channels_independent(self):
        rng = np.random.default_rng(3)
        vol = random_volume(rng)
        out = normalize_channels(vol)
        for c in range(vol.channels):
            argmax = np.unravel_index(np.argmax(vol.data[c]), vol.dims)
            argmin = np.unravel_index(np.argmin(vol.data[c]), vol.dims)
            assert out.data[c][argmax] == 1.0
            assert out.data[c][argmin] == 0.0

    def test_constant_channel_rejected(self):
        data = np.full((1, 2, 2, 2), 0.7, dtype=np.float32)
        with pytest.raises(DegenerateChannelError):
            normalize_channels(make_volume(data))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_idempotent(self, seed):
        vol = random_volume(np.random.default_rng(seed), shape=(2, 3, 4, 5))
        once = normalize_channels(vol)
        twice = normalize_channels(once)
        assert np.array_equal(once.data, twice.data)


class TestBrainMask:
    def test_all_zero_rejected(self):
        with pytest.raises(EmptyMaskError):
            compute_brain_mask(make_volume(np.zeros((2, 3, 3, 3), dtype=np.float32)))

    def test_single_voxel(self):
        data = np.zeros((2, 3, 3, 3), dtype=np.float32)
        data[0, 1, 2, 0] = 0.3
        mask = compute_brain_mask(make_volume(data))
        assert mask.count == 1
        assert mask.mask[1, 2, 0]


class TestVolumeInvariants:
    def test_data_is_read_only(self):
        vol = random_volume(np.random.default_rng(4))
        with pytest.raises(ValueError):
            vol.data[0, 0, 0, 0] = 1.0

    def test_bad_voxel_size(self):
        with pytest.raises(Exception, match="voxel_size"):
            Volume("s", (0.0, 1.0, 1.0), np.zeros((1, 2, 2, 2), dtype=np.float32), ("FA",))
