"""Tests for the durability primitives: atomic writes and the CRC-framed
records of the encoding log."""

import os

import pytest

from repro.engine import serialize


# -- atomic_write_bytes --------------------------------------------------------


def test_atomic_write_replaces_destination(tmp_path):
    path = str(tmp_path / "part.bin")
    with open(path, "wb") as f:
        f.write(b"old contents")
    serialize.atomic_write_bytes(path, b"new contents")
    with open(path, "rb") as f:
        assert f.read() == b"new contents"
    # No temp files left behind.
    assert os.listdir(tmp_path) == ["part.bin"]


def test_atomic_write_without_replace_leaves_temp(tmp_path):
    """replace=False is the torn-rename simulation: the temp file is
    durable but the destination never switched over."""
    path = str(tmp_path / "part.bin")
    with open(path, "wb") as f:
        f.write(b"old contents")
    tmp = serialize.atomic_write_bytes(path, b"new contents", replace=False)
    with open(path, "rb") as f:
        assert f.read() == b"old contents"
    with open(tmp, "rb") as f:
        assert f.read() == b"new contents"
    assert tmp == path + ".tmp"


# -- CRC frames ----------------------------------------------------------------


def test_frame_roundtrip():
    payloads = [b"alpha", b"", b"x" * 1000]
    data = b"".join(serialize.encode_frame(p) for p in payloads)
    got, dropped, corrupt = serialize.split_frames(data)
    assert got == payloads
    assert dropped == 0
    assert corrupt == 0


@pytest.mark.parametrize("cut", range(1, 14))
def test_truncated_tail_is_dropped_not_corrupt(cut):
    """A crash mid-append leaves a short final frame: every prefix of a
    valid frame must parse as "one frame dropped", never as corruption,
    and never lose the intact frames before it."""
    good = serialize.encode_frame(b"first-frame")
    tail = serialize.encode_frame(b"second-frame!!")
    data = good + tail[:-cut]
    got, dropped, corrupt = serialize.split_frames(data)
    assert got == [b"first-frame"]
    assert dropped == 1
    assert corrupt == 0


def test_interior_crc_mismatch_is_corrupt_and_skipped():
    a = serialize.encode_frame(b"aaaa")
    b = bytearray(serialize.encode_frame(b"bbbb"))
    b[-1] ^= 0xFF  # flip a payload byte; CRC goes stale
    c = serialize.encode_frame(b"cccc")
    got, dropped, corrupt = serialize.split_frames(bytes(a + b + c))
    assert got == [b"aaaa", b"cccc"]
    assert dropped == 0
    assert corrupt == 1


def test_header_only_tail_is_dropped():
    data = serialize.encode_frame(b"ok") + (5).to_bytes(4, "little")
    got, dropped, corrupt = serialize.split_frames(data)
    assert got == [b"ok"]
    assert dropped == 1
    assert corrupt == 0


def test_empty_input_is_clean():
    assert serialize.split_frames(b"") == ([], 0, 0)
