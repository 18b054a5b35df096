"""WAV decoding, magnitude STFT, per-bin normalization, segment selection,
and the dataset file codec.

A dataset holds one STFT config, aligned (mixture, target) magnitude
spectrograms with one track id per pair, and the per-bin scale fitted on the
mixtures (see fit_scale). Spectrograms are stored raw; each frame is divided
by the scale when frames are drawn for training or couplings extraction, so
one file serves both.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import serial
from .linalg import Mat

DATASET_MAGIC = b"NCD1"
DATASET_VERSION = 1

# fit_scale floors each bin's std here, so a silent bin scales by a positive
# value; a dataset stores the floor its scale was fitted with
SCALE_FLOOR = 1e-8

# Frames per STFT block: stft_mag frames, windows and transforms this many at a
# time, so its temporaries stay a few MiB at 2049 bins whatever the length.
STFT_BLOCK = 64

# Sample frames per WAV block: load_wav_mono reads and decodes this many at a
# time, so its temporaries stay under 1 MiB whatever the length.
WAV_BLOCK = 16384

# bytes per sample of each supported (format tag, bits) encoding
_WAV_ENCODINGS = {(1, 16): 2, (1, 24): 3, (3, 32): 4}


class WavError(Exception):
    """A WAV file could not be read or decoded; the message names the path."""


@dataclass(frozen=True)
class StftConfig:
    """Analysis parameters of a hamming-windowed STFT keeping fft_size // 2 + 1 bins."""

    sample_rate: int
    window_len: int
    hop: int
    fft_size: int

    def __post_init__(self):
        if self.sample_rate <= 0 or self.window_len <= 0 or self.hop <= 0:
            raise ValueError("sample_rate, window_len, and hop must be positive")
        if self.fft_size < self.window_len:
            raise ValueError(
                f"fft_size {self.fft_size} must be >= window_len {self.window_len}"
            )

    @property
    def bins_kept(self) -> int:
        return self.fft_size // 2 + 1

    @classmethod
    def default(cls) -> "StftConfig":
        """44.1 kHz analysis: 2048-sample hamming window, 384-sample hop,
        zero-padded to a 4096-point FFT (2049 bins)."""
        return cls(sample_rate=44100, window_len=2048, hop=384, fft_size=4096)


@dataclass
class Spectrogram:
    """Non-negative magnitudes, one row per bin and one column per frame."""

    mags: Mat

    def __post_init__(self):
        self.mags = np.asarray(self.mags, dtype=np.float64)
        if self.mags.ndim != 2:
            raise ValueError(f"mags must be 2-D, got shape {self.mags.shape}")
        if self.mags.size and self.mags.min() < 0:
            raise ValueError("magnitudes must be non-negative")

    @property
    def frames(self) -> int:
        return self.mags.shape[1]


@dataclass
class Dataset:
    """Aligned (mixture, target) spectrogram pairs at one STFT setting, one
    track id per pair, and the per-bin scale fitted on the mixtures with the
    floor it was fitted with; each fact as the file stores it, once."""

    config: StftConfig
    ids: list[str]
    pairs: list[tuple[Spectrogram, Spectrogram]]
    scale: np.ndarray
    floor: float = SCALE_FLOOR

    def __post_init__(self):
        if len(self.ids) != len(self.pairs):
            raise ValueError(f"{len(self.ids)} track ids for {len(self.pairs)} pairs")
        n = self.config.bins_kept
        for track, (mix, tgt) in zip(self.ids, self.pairs):
            for member, s in (("mixture", mix), ("target", tgt)):
                if s.mags.shape[0] != n:
                    raise ValueError(f"pair {track!r}: {member} has {s.mags.shape[0]} rows "
                                     f"but config keeps {n} bins")
            if mix.frames != tgt.frames:
                raise ValueError(
                    f"pair {track!r}: mixture has {mix.frames} frames, target {tgt.frames}"
                )
        self.scale = np.asarray(self.scale, dtype=np.float64)
        if self.scale.shape != (n,):
            raise ValueError(f"scale has shape {self.scale.shape}, expected ({n},)")
        if self.scale.min() <= 0:
            raise ValueError("per-bin scale must be positive")


def load_wav_mono(path: str | Path) -> tuple[np.ndarray, int]:
    """Decode a PCM WAV file to a mono float64 signal in [-1, 1]; return the
    signal and the sample rate its header gives.

    Supports 16/24-bit integer and 32-bit float encodings, mono or stereo
    (stereo is averaged). NaN or infinite float samples are an error.

    Only the chunk headers and the fmt fields are read as bytes. The data
    chunk is read from its offset WAV_BLOCK frames at a time, and each block
    is decoded, and its channels averaged, straight into the mono output;
    every step is elementwise or per frame, so the bits match a whole-array
    decode.
    """
    path = Path(path)
    try:
        f = open(path, "rb")
    except OSError as e:
        raise WavError(f"cannot read WAV file {path}: {e}") from None
    with f:
        end = os.fstat(f.fileno()).st_size
        head = f.read(12)
        if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
            raise WavError(f"{path}: not a RIFF/WAVE file")

        fmt = data = None
        pos = 12
        while pos + 8 <= end:
            f.seek(pos)
            cid, size = struct.unpack("<4sI", f.read(8))
            if cid == b"fmt ":
                fmt = f.read(min(size, 16))
            elif cid == b"data":
                # a chunk that runs past the end of the file is cut there
                data = (pos + 8, min(size, end - pos - 8))
            pos += 8 + size + (size & 1)
        if fmt is None or len(fmt) < 16 or data is None:
            raise WavError(f"{path}: missing fmt or data chunk")

        audio_format, channels, rate, _, _, bits = struct.unpack("<HHIIHH", fmt)
        if channels not in (1, 2):
            raise WavError(f"{path}: unsupported channel count {channels}")
        width = _WAV_ENCODINGS.get((audio_format, bits))
        if width is None:
            raise WavError(f"{path}: unsupported encoding (format={audio_format}, bits={bits})")

        offset, length = data
        out = np.empty(length // width // channels)
        f.seek(offset)
        for lo in range(0, len(out), WAV_BLOCK):
            hi = min(lo + WAV_BLOCK, len(out))
            x = _decode_samples(np.fromfile(f, np.uint8, (hi - lo) * channels * width), width)
            if width == 4 and not np.isfinite(x).all():
                raise WavError(f"{path}: non-finite float samples")
            if channels == 2:
                np.mean(x.reshape(-1, 2), axis=1, out=out[lo:hi])
            else:
                out[lo:hi] = x
    return out, rate


def _decode_samples(raw: np.ndarray, width: int) -> np.ndarray:
    """Little-endian samples of `width` bytes each, as float64 in [-1, 1]."""
    if width == 2:
        x = raw.view("<i2").astype(np.float64)
        x /= 32768.0
        return x
    if width == 3:
        b = raw.reshape(-1, 3).astype(np.int32)
        v = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        v = (v ^ 0x800000) - 0x800000  # sign-extend 24-bit
        return v.astype(np.float64) / 8388608.0
    return raw.view("<f4").astype(np.float64)


def stft_mag(signal, cfg: StftConfig) -> Spectrogram:
    """Magnitude STFT with hamming windowing and zero-padding to fft_size.

    Frame t covers samples [t*hop, t*hop + window_len); the frame count is
    1 + floor((len(signal) - window_len) / hop). Trailing samples that do not
    fill a window are dropped. The frames are transformed STFT_BLOCK at a
    time and each block's magnitudes written straight into the (bins,
    frames) output; every frame's transform is taken alone, so the bits are
    those of transforming all frames at once.
    """
    sig = np.asarray(signal, dtype=np.float64)
    if sig.ndim != 1:
        raise ValueError(f"signal must be 1-D, got shape {sig.shape}")
    if sig.shape[0] < cfg.window_len:
        raise ValueError(
            f"signal of {sig.shape[0]} samples is shorter than one {cfg.window_len}-sample window"
        )
    n_frames = 1 + (sig.shape[0] - cfg.window_len) // cfg.hop
    window = np.hamming(cfg.window_len)[None, :]
    offsets = np.arange(cfg.window_len)[None, :]
    mags = np.empty((cfg.bins_kept, n_frames))
    for lo in range(0, n_frames, STFT_BLOCK):
        hi = min(lo + STFT_BLOCK, n_frames)
        frames = sig[cfg.hop * np.arange(lo, hi)[:, None] + offsets]
        frames *= window
        np.abs(np.fft.rfft(frames, n=cfg.fft_size, axis=1), out=mags[:, lo:hi].T)
    return Spectrogram(mags)


def fit_scale(spectrograms: list[Spectrogram]) -> np.ndarray:
    """Per-bin population std over all frames of all inputs, floored at
    SCALE_FLOOR. Each bin's std is taken over that bin's concatenated row,
    one row at a time, so no copy of all the frames is made."""
    if not spectrograms:
        raise ValueError("fit_scale: no spectrograms given")
    n = spectrograms[0].mags.shape[0]
    if any(s.mags.shape[0] != n for s in spectrograms):
        raise ValueError("fit_scale: inputs differ in bin count")
    total = sum(s.frames for s in spectrograms)
    if total < 2:
        raise ValueError(f"fit_scale: need at least 2 frames, got {total}")
    row = np.empty(total)
    std = np.empty(n)
    for i in range(n):
        np.concatenate([s.mags[i] for s in spectrograms], out=row)
        std[i] = row.std()  # population (ddof=0)
    return np.maximum(std, SCALE_FLOOR)


def normalized_pair_rows(ds: Dataset) -> tuple[Mat, Mat]:
    """All frames of all pairs, divided by the scale, one frame per row:
    (mixture rows, target rows), each a (total frames, bins) C-order float32
    array, the rows training runs on. Each pair is divided straight into its
    rows, which rounds the float64 quotient, so no other copy is made. A
    quotient beyond the float32 range becomes inf, which training refuses."""
    if not ds.pairs:
        raise ValueError("dataset has no pairs")
    scale = ds.scale[:, None]
    total = sum(mix.frames for mix, _ in ds.pairs)
    mix_rows, tgt_rows = np.empty((2, total, ds.config.bins_kept), dtype=np.float32)
    k = 0
    with np.errstate(over="ignore"):
        for mix, tgt in ds.pairs:
            np.divide(mix.mags, scale, out=mix_rows[k : k + mix.frames].T)
            np.divide(tgt.mags, scale, out=tgt_rows[k : k + mix.frames].T)
            k += mix.frames
    return mix_rows, tgt_rows


def normalized_window(ds: Dataset, pair_idx: int, start: int, stop: int) -> tuple[Mat, Mat]:
    """(mixture, target) frames [start, stop) of one pair, divided by the scale."""
    if not 0 <= pair_idx < len(ds.pairs):
        raise ValueError(f"pair index {pair_idx} out of range ({len(ds.pairs)} pairs)")
    mix, tgt = ds.pairs[pair_idx]
    if not 0 <= start < stop <= mix.frames:
        raise ValueError(f"window [{start}, {stop}) out of range for {mix.frames} frames")
    scale = ds.scale[:, None]
    return mix.mags[:, start:stop] / scale, tgt.mags[:, start:stop] / scale


def _read_config(f) -> StftConfig:
    sample_rate, window_len, hop, fft_size, bins_kept, kind_byte = serial.unpack(f, "5IB")
    if kind_byte != 0:
        raise serial.FormatError(f"unknown window kind byte {kind_byte}")
    try:
        cfg = StftConfig(sample_rate, window_len, hop, fft_size)
    except ValueError as e:
        raise serial.FormatError(f"invalid stored config: {e}") from None
    if bins_kept != cfg.bins_kept:
        raise serial.FormatError(f"stored bins_kept {bins_kept} is not fft_size/2+1")
    return cfg


def save_dataset(ds: Dataset, path: str | Path) -> None:
    with serial.atomic_writer(path) as f:
        serial.write_header(f, DATASET_MAGIC, DATASET_VERSION)
        cfg = ds.config
        # stored though fixed: the bin count, and window kind 0 (hamming)
        serial.pack(f, "5IB", cfg.sample_rate, cfg.window_len, cfg.hop, cfg.fft_size,
                    cfg.bins_kept, 0)
        serial.pack(f, "I", len(ds.pairs))
        for track, (mix, tgt) in zip(ds.ids, ds.pairs):
            serial.write_str(f, track)
            serial.write_mat(f, mix.mags)
            serial.write_mat(f, tgt.mags)
        serial.pack(f, "I", ds.scale.shape[0])
        serial.write_f64s(f, ds.scale)
        serial.pack(f, "d", ds.floor)


def load_dataset(path: str | Path) -> Dataset:
    with open(path, "rb") as f:
        serial.read_header(f, DATASET_MAGIC, DATASET_VERSION)
        cfg = _read_config(f)
        (n_pairs,) = serial.unpack(f, "I")
        ids, mats = [], []
        for _ in range(n_pairs):
            ids.append(serial.read_str(f))
            mats.append((serial.read_mat(f), serial.read_mat(f)))
        (n_bins,) = serial.unpack(f, "I")
        scale = serial.read_f64s(f, n_bins)
        floor = float(serial.read_f64s(f, 1)[0])
    try:
        pairs = [(Spectrogram(mix), Spectrogram(tgt)) for mix, tgt in mats]
        return Dataset(cfg, ids, pairs, scale, floor)
    except ValueError as e:
        raise serial.FormatError(f"invalid stored dataset: {e}") from None
