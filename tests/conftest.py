"""Shared test fixtures: a WAV byte builder, a grayscale PNG parser, a
`models.backward` caller that allocates the gradient arrays, the batch
MSE oracle that pins the loss `backward` returns and the moving average that
acceptance criterion 7 smooths loss curves with."""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from neural_couplings.linalg import ShapeError
from neural_couplings.models import backward


def _wav_bytes(rate: int, samples: np.ndarray, bits: int, audio_format: int) -> bytes:
    """RIFF/WAVE bytes for a (frames, channels) sample array.

    audio_format 1 is integer PCM (bits 16 or 24), 3 is float32.
    """
    samples = np.atleast_2d(samples)
    channels = samples.shape[1]
    if audio_format == 1 and bits == 16:
        payload = samples.astype("<i2").tobytes()
    elif audio_format == 1 and bits == 24:
        flat = samples.astype(np.int64).ravel()
        payload = b"".join(
            bytes(((v & 0xFF), (v >> 8) & 0xFF, (v >> 16) & 0xFF)) for v in flat
        )
    elif audio_format == 3 and bits == 32:
        payload = samples.astype("<f4").tobytes()
    else:
        # deliberately unsupported encodings for error-path tests
        payload = samples.astype(np.uint8).tobytes()
    block_align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", audio_format, channels, rate, rate * block_align,
                      block_align, bits)
    pad = b"\x00" if len(payload) % 2 else b""
    body = (
        b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", len(payload)) + payload + pad
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.fixture(scope="session")
def wav_builder():
    return _wav_bytes


def _parse_png(data: bytes) -> np.ndarray:
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    pos = 8
    ihdr = idat = b""
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        chunk = data[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])
        assert crc == zlib.crc32(tag + chunk), f"bad CRC on {tag!r}"
        if tag == b"IHDR":
            ihdr = chunk
        elif tag == b"IDAT":
            idat += chunk
        pos += 12 + length
    w, h, depth, color = struct.unpack(">IIBB", ihdr[:10])
    assert depth == 8 and color == 0, "expected 8-bit grayscale"
    raw = zlib.decompress(idat)
    rows = []
    for r in range(h):
        line = raw[r * (w + 1) : (r + 1) * (w + 1)]
        assert line[0] == 0, "expected filter type 0 on every row"
        rows.append(np.frombuffer(line[1:], dtype=np.uint8))
    return np.stack(rows)


def _backward_grads(params, acts, target):
    """Per-layer (dW, db) from `backward` written into NaN-filled arrays."""
    grads = [(np.full_like(w, np.nan), np.full_like(b, np.nan)) for w, b in params.layers]
    backward(params, acts, target, grads)
    return grads


@pytest.fixture
def backward_grads():
    return _backward_grads


def _mse(x_batch, xhat_batch) -> float:
    """Mean over the batch of the per-column (1/n)*||x - xhat||^2."""
    x = np.asarray(x_batch, dtype=np.float64)
    xh = np.asarray(xhat_batch, dtype=np.float64)
    if x.shape != xh.shape:
        raise ShapeError(f"mse: shapes {x.shape} and {xh.shape} differ")
    d = x - xh
    return float(np.mean(d * d))


@pytest.fixture
def mse():
    return _mse


def _moving_average(values, window: int) -> np.ndarray:
    """Sliding mean with the given window; length len(values) - window + 1."""
    v = np.asarray(values, dtype=np.float64)
    if window < 1 or window > v.shape[0]:
        raise ValueError(f"window {window} invalid for {v.shape[0]} values")
    csum = np.concatenate(([0.0], np.cumsum(v)))
    return (csum[window:] - csum[:-window]) / window


@pytest.fixture
def moving_average():
    return _moving_average


@pytest.fixture
def parse_png():
    return _parse_png
