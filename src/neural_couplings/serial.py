"""Little-endian binary primitives shared by the dataset, checkpoint, and
couplings codecs, plus atomic file writing and content hashing."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
import tempfile
from pathlib import Path
from typing import BinaryIO

import numpy as np


class FormatError(Exception):
    """File bytes do not parse as the expected format."""


class VersionError(FormatError):
    """File was written by a newer format revision than this build reads."""


def read_exact(f: BinaryIO, n: int) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise FormatError(f"truncated file: expected {n} more bytes, found {len(data)}")
    return data


def _check_left(f: BinaryIO, n: int) -> int:
    """f's position, once n is checked against the bytes left after it."""
    here = f.tell()
    left = f.seek(0, os.SEEK_END) - here
    f.seek(here)
    if n > left:
        raise FormatError(f"truncated file: expected {n} more bytes, found {left}")
    return here


def read_sized(f: BinaryIO, n: int) -> bytes:
    """read_exact for a byte count the file itself declares: n is checked
    against the bytes left before anything is allocated, so a hostile header
    is a FormatError rather than a huge read."""
    _check_left(f, n)
    return read_exact(f, n)


def skip_sized(f: BinaryIO, n: int) -> None:
    """Seek past a byte count the file itself declares, checked as read_sized
    checks it."""
    f.seek(_check_left(f, n) + n)


def read_f64s(f: BinaryIO, count: int) -> np.ndarray:
    """count little-endian float64 values, all of which must be finite. They
    are read straight into the returned array, once the count is checked
    against the file as read_sized checks it."""
    _check_left(f, count * 8)
    a = np.empty(count, dtype="<f8")
    got = f.readinto(memoryview(a).cast("B"))
    if got != count * 8:
        raise FormatError(f"truncated file: expected {count * 8} more bytes, found {got}")
    a = a.astype(np.float64, copy=False)  # a no-op on a little-endian host
    if not np.isfinite(a).all():
        raise FormatError("non-finite values in stored float64 payload")
    return a


def pack(f: BinaryIO, fmt: str, *values) -> None:
    """Write values as the little-endian struct format fmt, such as "IB"."""
    f.write(struct.pack("<" + fmt, *values))


def unpack(f: BinaryIO, fmt: str) -> tuple:
    """The values of the little-endian struct format fmt, read through
    read_exact, so a short file is a FormatError."""
    fmt = "<" + fmt
    return struct.unpack(fmt, read_exact(f, struct.calcsize(fmt)))


def write_header(f: BinaryIO, magic: bytes, version: int) -> None:
    """The header every format shares: the 4-byte magic, then a u32 version."""
    f.write(magic)
    pack(f, "I", version)


def read_header(f: BinaryIO, magic: bytes, current: int) -> int:
    """The version of a header written by write_header; a version newer than
    current is a VersionError."""
    got = f.read(len(magic))
    if got != magic:
        raise FormatError(f"bad magic bytes {got!r}, expected {magic!r}")
    (version,) = unpack(f, "I")
    if version > current:
        raise VersionError(f"file format version {version} is newer than supported {current}")
    return version


def write_mat(f: BinaryIO, m: np.ndarray) -> None:
    """u32 rows, u32 cols, then row-major little-endian float64 payload."""
    m = np.ascontiguousarray(m, dtype="<f8")
    if m.ndim != 2:
        raise ValueError(f"write_mat: expected a 2-D matrix, got shape {m.shape}")
    pack(f, "II", *m.shape)
    write_f64s(f, m)


def write_f64s(f: BinaryIO, a: np.ndarray) -> None:
    """a's values as little-endian float64, written from a's own buffer when
    it already is one, so no payload-sized copy is made. The buffer is cast
    through its flat view, which an array with a zero-length axis also has."""
    f.write(memoryview(np.ascontiguousarray(a, dtype="<f8").reshape(-1)).cast("B"))


def read_mat(f: BinaryIO) -> np.ndarray:
    rows, cols = unpack(f, "II")
    return read_f64s(f, rows * cols).reshape(rows, cols)


def write_str(f: BinaryIO, s: str) -> None:
    raw = s.encode("utf-8")
    pack(f, "I", len(raw))
    f.write(raw)


def read_str(f: BinaryIO) -> str:
    (n,) = unpack(f, "I")
    try:
        return read_sized(f, n).decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"stored string is not UTF-8: {e}") from None


@contextlib.contextmanager
def atomic_writer(path: str | Path):
    """A binary file to stream into, renamed onto path when the block ends
    without an exception and removed otherwise. It is a temp file in the
    same directory, created with it if it is missing, and gets the mode a
    new file would (0o666 less the umask) before the rename."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    except OSError as e:
        # mkdir names a parent and mkstemp its random temp file; the caller
        # asked for path
        raise type(e)(e.errno, e.strerror, str(path)) from None
    try:
        with os.fdopen(fd, "wb") as f:
            yield f
        # mkstemp's 0o600 would survive the rename. Reading the umask means
        # setting it, so it is put straight back.
        umask = os.umask(0o022)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_file_atomic(path: str | Path, data: bytes) -> None:
    """Write bytes already in memory, such as a text file, through
    atomic_writer."""
    with atomic_writer(path) as f:
        f.write(data)


def write_json(path: str | Path, obj) -> None:
    """obj as JSON text with sorted keys, a two-space indent and a final
    newline, written through write_file_atomic."""
    write_file_atomic(path, (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode())


def sha256_file(path: str | Path) -> str:
    """Hex sha256 of a file's contents, read in blocks of at most 1 MiB."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        # sized to a small file: a zeroed 1 MiB buffer for every small
        # manifest input raised the peak RSS of a couplings run
        buf = bytearray(max(1, min(os.fstat(f.fileno()).st_size, 1 << 20)))
        while size := f.readinto(buf):
            h.update(memoryview(buf)[:size])
    return h.hexdigest()


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
