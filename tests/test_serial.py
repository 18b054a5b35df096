import hashlib
import io
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from neural_couplings import serial
from neural_couplings.models import ModelParams, save_checkpoint
from neural_couplings.nca import save_couplings
from neural_couplings.spectral import (
    Dataset,
    Spectrogram,
    StftConfig,
    load_dataset,
    save_dataset,
)


def test_scalar_round_trips():
    buf = io.BytesIO()
    serial.pack(buf, "BIQd", 7, 123456, 2**40 + 5, -0.125)
    serial.pack(buf, "I", 9)
    buf.seek(0)
    assert serial.unpack(buf, "BIQd") == (7, 123456, 2**40 + 5, -0.125)
    assert serial.unpack(buf, "I") == (9,)
    assert buf.read() == b""


def test_scalars_are_little_endian():
    # and packed with no alignment padding: a u8 then a u32 is 5 bytes
    buf = io.BytesIO()
    serial.pack(buf, "BI", 2, 1)
    assert buf.getvalue() == b"\x02\x01\x00\x00\x00"


def test_read_exact_reports_truncation():
    buf = io.BytesIO(b"ab")
    with pytest.raises(serial.FormatError, match="truncated"):
        serial.read_exact(buf, 3)


def test_unpack_reports_truncation():
    with pytest.raises(serial.FormatError, match="truncated"):
        serial.unpack(io.BytesIO(b"\x01\x00\x00\x00\x02"), "II")


def test_header_is_magic_then_u32_version():
    buf = io.BytesIO()
    serial.write_header(buf, b"NCD1", 1)
    assert buf.getvalue() == b"NCD1\x01\x00\x00\x00"
    with pytest.raises(serial.FormatError, match="truncated"):
        serial.read_header(io.BytesIO(buf.getvalue()[:6]), b"NCD1", 1)


def test_expect_magic_mismatch():
    buf = io.BytesIO(b"XXXX\x01\x00\x00\x00")
    with pytest.raises(serial.FormatError, match="magic"):
        serial.read_header(buf, b"NCD1", 1)


def test_read_version_accepts_older_rejects_newer():
    buf = io.BytesIO()
    serial.write_header(buf, b"NCD1", 1)
    buf.seek(0)
    assert serial.read_header(buf, b"NCD1", current=2) == 1

    buf = io.BytesIO()
    serial.write_header(buf, b"NCD1", 3)
    buf.seek(0)
    with pytest.raises(serial.VersionError, match="newer"):
        serial.read_header(buf, b"NCD1", current=2)


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
    serial.pack(mat, "II", huge, huge)
    mat.write(b"\x00" * 8)
    mat.seek(0)
    with pytest.raises(serial.FormatError, match="truncated"):
        serial.read_mat(mat)
    s = io.BytesIO()
    serial.pack(s, "I", huge)
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


def test_write_csv(tmp_path):
    # the epoch-history rows of `nca train`, and a blank cell for None
    p = tmp_path / "h.csv"
    serial.write_csv(p, ("epoch", "mean_loss", "lr"), [(0, 0.5, 1e-3), (1, 0.25, 5e-4)])
    assert p.read_text() == "epoch,mean_loss,lr\n0,0.5,0.001\n1,0.25,0.0005\n"
    serial.write_csv(p, ("a", "b"), [("x", None), ("y", 1 / 3)])
    assert p.read_bytes() == b"a,b\nx,\ny,0.3333333333333333\n"


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


def test_write_json_is_sorted_indented_and_atomic(tmp_path, monkeypatch):
    written = []
    write = serial.write_file_atomic
    monkeypatch.setattr(serial, "write_file_atomic",
                        lambda path, data: written.append(data) or write(path, data))
    serial.write_json(tmp_path / "a.json", {"b": [1, 2], "a": {"y": None, "x": 0.5}})
    text = '{\n  "a": {\n    "x": 0.5,\n    "y": null\n  },\n  "b": [\n    1,\n    2\n  ]\n}\n'
    assert (tmp_path / "a.json").read_text() == text
    assert written == [text.encode()]


def test_canonical_json_is_sorted_and_compact():
    text = serial.canonical_json({"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}})
    assert text == '{"a":[1,2],"b":1,"c":{"x":1,"y":0}}'
    assert json.loads(text) == {"a": [1, 2], "b": 1, "c": {"x": 1, "y": 0}}


# The README "File formats" layouts, packed field by field with struct alone,
# so that a codec and serial that drift together still fail here.


def f64s(a) -> bytes:
    a = np.asarray(a, dtype=np.float64).ravel()
    return struct.pack(f"<{a.size}d", *a)


def mat(a) -> bytes:
    return struct.pack("<II", *a.shape) + f64s(a)


def test_dataset_bytes_follow_the_readme_layout(tmp_path):
    cfg = StftConfig(sample_rate=8000, window_len=4, hop=2, fft_size=4)  # 3 bins
    mix = np.arange(6.0).reshape(3, 2) + 0.5
    tgt = mix / 4.0
    scale = np.array([0.25, 1.5, 3.0])
    save_dataset(Dataset(cfg, ["ab"], [(Spectrogram(mix), Spectrogram(tgt))], scale, 1e-8),
                 tmp_path / "d.ncd")
    want = (b"NCD1" + struct.pack("<I", 1)
            + struct.pack("<IIIIIB", 8000, 4, 2, 4, 3, 0)  # config, bins kept, hamming
            + struct.pack("<I", 1)  # pairs
            + struct.pack("<I", 2) + b"ab" + mat(mix) + mat(tgt)
            + struct.pack("<I", 3) + f64s(scale) + struct.pack("<d", 1e-8))
    assert (tmp_path / "d.ncd").read_bytes() == want


def ncd(mix, tgt, scale) -> bytes:
    """A one-pair .ncd at 3 bins, packed with struct alone."""
    return (b"NCD1" + struct.pack("<I", 1)
            + struct.pack("<IIIIIB", 8000, 4, 2, 4, 3, 0)
            + struct.pack("<I", 1)
            + struct.pack("<I", 2) + b"ab" + mat(np.asarray(mix)) + mat(np.asarray(tgt))
            + struct.pack("<I", len(scale)) + f64s(scale) + struct.pack("<d", 1e-8))


GOOD = np.ones((3, 2))


def test_packed_dataset_loads(tmp_path):
    (tmp_path / "d.ncd").write_bytes(ncd(GOOD, GOOD / 2, [0.25, 1.5, 3.0]))
    ds = load_dataset(tmp_path / "d.ncd")
    assert ds.ids == ["ab"] and ds.scale.tolist() == [0.25, 1.5, 3.0] and ds.floor == 1e-8


@pytest.mark.parametrize("mix, tgt, scale, why", [
    (np.ones((2, 2)), GOOD, [1.0] * 3, "mixture has 2 rows"),
    (GOOD, np.ones((4, 2)), [1.0] * 3, "target has 4 rows"),
    (GOOD, np.ones((3, 3)), [1.0] * 3, "mixture has 2 frames, target 3"),
    (GOOD, -GOOD, [1.0] * 3, "non-negative"),
    (GOOD, GOOD, [1.0] * 2, "scale has shape"),
    (GOOD, GOOD, [1.0, 0.0, 1.0], "positive"),
], ids=["mix-rows", "target-rows", "target-frames", "negative", "scale-length", "zero-scale"])
def test_loader_refuses_an_inconsistent_dataset(tmp_path, mix, tgt, scale, why):
    (tmp_path / "d.ncd").write_bytes(ncd(mix, tgt, scale))
    with pytest.raises(serial.FormatError, match=why):
        load_dataset(tmp_path / "d.ncd")


def test_dataset_with_a_zero_frame_pair_round_trips(tmp_path):
    # the loader accepts a pair of (n, 0) spectrograms, so the writer must
    # write one back: a zero-length axis has no buffer shape memoryview casts
    empty = np.zeros((3, 0))
    raw = (b"NCD1" + struct.pack("<I", 1)
           + struct.pack("<IIIIIB", 8000, 4, 2, 4, 3, 0)
           + struct.pack("<I", 1)
           + struct.pack("<I", 2) + b"ab" + mat(empty) + mat(empty)
           + struct.pack("<I", 3) + f64s([0.25, 1.5, 3.0]) + struct.pack("<d", 1e-8))
    (tmp_path / "in.ncd").write_bytes(raw)
    ds = load_dataset(tmp_path / "in.ncd")
    assert [(mix.frames, tgt.frames) for mix, tgt in ds.pairs] == [(0, 0)]
    save_dataset(ds, tmp_path / "out.ncd")
    assert (tmp_path / "out.ncd").read_bytes() == raw


def test_checkpoint_bytes_follow_the_readme_layout(tmp_path):
    layers = [(np.array([[1.0, -2.0], [0.5, 4.0]]) * k, np.array([[0.25], [-1.0]]) * k)
              for k in (1, 3)]
    save_checkpoint(tmp_path / "m.ncm", ModelParams("sf", layers), 2**40 + 5, 17)
    want = (b"NCM1" + struct.pack("<I", 1)
            + struct.pack("<BII", 2, 2, 2)  # arch sf, n, layers
            + b"".join(mat(w) + mat(b) for w, b in layers)
            + struct.pack("<QI", 2**40 + 5, 17))
    assert (tmp_path / "m.ncm").read_bytes() == want


def test_couplings_bytes_follow_the_readme_layout(tmp_path):
    c = np.array([[0.5, -1.0], [2.0, 0.125]])
    save_couplings(tmp_path / "c.ncc", c, {"strategy": "student", "segment": "0:0:2"})
    meta = b'{"segment":"0:0:2","strategy":"student"}'
    want = (b"NCC1" + struct.pack("<I", 1) + struct.pack("<I", 2) + f64s(c)
            + struct.pack("<I", len(meta)) + meta)
    assert (tmp_path / "c.ncc").read_bytes() == want
