import hashlib
import io
import json
import os
import tracemalloc

import numpy as np
import pytest

from neural_couplings import serial


def test_scalar_round_trips():
    buf = io.BytesIO()
    serial.write_u8(buf, 7)
    serial.write_u32(buf, 123456)
    serial.write_u64(buf, 2**40 + 5)
    serial.write_f64(buf, -0.125)
    buf.seek(0)
    assert serial.read_u8(buf) == 7
    assert serial.read_u32(buf) == 123456
    assert serial.read_u64(buf) == 2**40 + 5
    assert serial.read_f64(buf) == -0.125


def test_scalars_are_little_endian():
    buf = io.BytesIO()
    serial.write_u32(buf, 1)
    assert buf.getvalue() == b"\x01\x00\x00\x00"


def test_read_exact_reports_truncation():
    buf = io.BytesIO(b"ab")
    with pytest.raises(serial.FormatError, match="truncated"):
        serial.read_exact(buf, 3)


def test_expect_magic_mismatch():
    buf = io.BytesIO(b"XXXX")
    with pytest.raises(serial.FormatError, match="magic"):
        serial.expect_magic(buf, b"NCD1")


def test_read_version_accepts_older_rejects_newer():
    buf = io.BytesIO()
    serial.write_u32(buf, 1)
    buf.seek(0)
    assert serial.read_version(buf, current=2) == 1

    buf = io.BytesIO()
    serial.write_u32(buf, 3)
    buf.seek(0)
    with pytest.raises(serial.VersionError):
        serial.read_version(buf, current=2)


def test_version_error_is_a_format_error():
    assert issubclass(serial.VersionError, serial.FormatError)


def test_mat_round_trip_preserves_values_and_shape():
    m = np.array([[1.5, -2.0, 3.25], [0.0, 5e-300, -1e300]])
    # a transposed view and a big-endian copy are written as their values
    for given in (m, m.T, m.astype(">f8")):
        buf = io.BytesIO()
        serial.write_mat(buf, given)
        assert buf.getvalue()[8:] == np.ascontiguousarray(given, dtype="<f8").tobytes()
        buf.seek(0)
        out = serial.read_mat(buf)
        assert out.shape == given.shape
        assert np.array_equal(out, given)


def test_write_mat_rejects_non_2d():
    with pytest.raises(ValueError):
        serial.write_mat(io.BytesIO(), np.ones(3))


def test_read_mat_truncated_payload():
    buf = io.BytesIO()
    serial.write_mat(buf, np.ones((4, 4)))
    data = buf.getvalue()[:-8]
    with pytest.raises(serial.FormatError):
        serial.read_mat(io.BytesIO(data))


def test_hostile_sizes_are_rejected_before_reading():
    # a (2^32 - 1)^2 matrix and a 4 GiB string, declared in front of 8 bytes
    huge = 2**32 - 1
    mat = io.BytesIO()
    serial.write_u32(mat, huge)
    serial.write_u32(mat, huge)
    mat.write(b"\x00" * 8)
    mat.seek(0)
    with pytest.raises(serial.FormatError, match="truncated"):
        serial.read_mat(mat)
    s = io.BytesIO()
    serial.write_u32(s, huge)
    s.write(b"abcdefgh")
    s.seek(0)
    with pytest.raises(serial.FormatError, match="truncated"):
        serial.read_str(s)


def test_read_mat_rejects_non_finite():
    for bad in (np.nan, np.inf):
        buf = io.BytesIO()
        serial.write_mat(buf, np.array([[1.0, bad]]))
        buf.seek(0)
        with pytest.raises(serial.FormatError, match="non-finite"):
            serial.read_mat(buf)


def test_str_round_trip_utf8():
    buf = io.BytesIO()
    serial.write_str(buf, "mss-dae é")
    buf.seek(0)
    assert serial.read_str(buf) == "mss-dae é"


def test_read_str_rejects_invalid_utf8():
    buf = io.BytesIO()
    serial.write_str(buf, "mss-dae é")
    raw = bytearray(buf.getvalue())
    raw[-2] = 0xFF  # first byte of the two-byte é
    with pytest.raises(serial.FormatError, match="UTF-8"):
        serial.read_str(io.BytesIO(bytes(raw)))


def test_write_file_atomic_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.bin"
    serial.write_file_atomic(target, b"hello")
    assert target.read_bytes() == b"hello"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


def test_write_file_atomic_overwrites(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    serial.write_file_atomic(target, b"new")
    assert target.read_bytes() == b"new"


def test_write_file_atomic_creates_missing_directories(tmp_path):
    target = tmp_path / "a" / "b" / "out.bin"
    serial.write_file_atomic(target, b"x")
    assert target.read_bytes() == b"x"
    assert sorted(p.name for p in target.parent.iterdir()) == ["out.bin"]


def test_write_file_atomic_names_the_target_when_its_directory_is_a_file(tmp_path):
    (tmp_path / "file").write_bytes(b"")
    target = tmp_path / "file" / "sub" / "out.bin"
    with pytest.raises(OSError) as info:
        serial.write_file_atomic(target, b"x")
    assert info.value.filename == str(target)


def test_atomic_writer_keeps_the_old_file_when_the_block_raises(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with serial.atomic_writer(target) as f:
            f.write(b"partial")
            raise RuntimeError("writer failed")
    assert target.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


@pytest.mark.parametrize("umask", [0o022, 0o002, 0o077])
def test_written_files_get_the_mode_of_a_new_file(tmp_path, umask):
    # mkstemp creates its file 0o600, which would survive the rename
    old = os.umask(umask)
    try:
        serial.write_file_atomic(tmp_path / "a", b"x")
        with serial.atomic_writer(tmp_path / "b") as f:
            f.write(b"x")
        (tmp_path / "c").write_bytes(b"x")
    finally:
        os.umask(old)
    modes = [(tmp_path / name).stat().st_mode & 0o777 for name in "abc"]
    assert modes == [0o666 & ~umask] * 3


def test_skip_sized_checks_the_bytes_left():
    f = io.BytesIO(b"abcdef")
    serial.skip_sized(f, 4)
    assert f.read() == b"ef"
    with pytest.raises(serial.FormatError, match="truncated"):
        serial.skip_sized(f, 1)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_sha256_matches_known_digest(tmp_path):
    # sha256("abc") is a published test vector
    want = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    assert sha256_bytes(b"abc") == want
    p = tmp_path / "f"
    p.write_bytes(b"abc")
    assert serial.sha256_file(p) == want


def test_sha256_file_streams_in_fixed_blocks(tmp_path):
    # 16 MiB plus a partial block; read whole, it would peak at 16 MiB
    data = np.random.default_rng(0).bytes(16 * 2**20 + 12345)
    p = tmp_path / "big"
    p.write_bytes(data)
    want = sha256_bytes(data)
    del data
    tracemalloc.start()
    try:
        got = serial.sha256_file(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 2 * 2**20
    p.write_bytes(b"")
    assert serial.sha256_file(p) == sha256_bytes(b"")


def test_canonical_json_is_sorted_and_compact():
    text = serial.canonical_json({"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}})
    assert text == '{"a":[1,2],"b":1,"c":{"x":1,"y":0}}'
    assert json.loads(text) == {"a": [1, 2], "b": 1, "c": {"x": 1, "y": 0}}
