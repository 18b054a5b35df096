"""WAV decoding, magnitude STFT, per-bin normalization, segment selection,
and the dataset file codec.

A dataset holds aligned (mixture, target) magnitude-spectrogram pairs plus
the per-bin scaler fitted on the mixtures. Spectrograms are stored raw; the
scaler is applied when frames are drawn for training or couplings extraction
so one file serves both.
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
    """Non-negative magnitudes, one column per analysis frame."""

    config: StftConfig
    mags: Mat
    source_id: str = ""

    def __post_init__(self):
        self.mags = np.asarray(self.mags, dtype=np.float64)
        if self.mags.ndim != 2:
            raise ValueError(f"mags must be 2-D, got shape {self.mags.shape}")
        if self.mags.shape[0] != self.config.bins_kept:
            raise ValueError(
                f"mags has {self.mags.shape[0]} rows but config keeps {self.config.bins_kept} bins"
            )
        if self.mags.size and self.mags.min() < 0:
            raise ValueError("magnitudes must be non-negative")

    @property
    def frames(self) -> int:
        return self.mags.shape[1]


@dataclass
class BinScaler:
    """Per-bin population standard deviations, floored at epsilon."""

    per_bin_std: np.ndarray
    epsilon: float = 1e-8

    def __post_init__(self):
        self.per_bin_std = np.asarray(self.per_bin_std, dtype=np.float64).ravel()
        if self.per_bin_std.size == 0:
            raise ValueError("scaler needs at least one bin")
        if self.per_bin_std.min() <= 0:
            raise ValueError("per-bin std must be positive after flooring")


@dataclass
class Dataset:
    """Aligned (mixture, target) spectrogram pairs plus the mixture-fit scaler.

    Both members of a pair carry the same track source_id; the file format
    stores one id per pair.
    """

    config: StftConfig
    pairs: list[tuple[Spectrogram, Spectrogram]]
    scaler: BinScaler

    def __post_init__(self):
        for mix, tgt in self.pairs:
            if mix.source_id != tgt.source_id:
                raise ValueError(
                    f"pair {mix.source_id!r}: target source_id {tgt.source_id!r} differs"
                )
            if mix.frames != tgt.frames:
                raise ValueError(
                    f"pair {mix.source_id!r}: mixture has {mix.frames} frames, target {tgt.frames}"
                )
            if mix.config != self.config or tgt.config != self.config:
                raise ValueError(f"pair {mix.source_id!r} does not match the dataset config")
        if self.scaler.per_bin_std.shape[0] != self.config.bins_kept:
            raise ValueError("scaler length does not match bins_kept")


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


def stft_mag(signal, cfg: StftConfig, source_id: str = "") -> Spectrogram:
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
    return Spectrogram(cfg, mags, source_id)


def fit_scaler(spectrograms: list[Spectrogram]) -> BinScaler:
    """Per-bin population std over all frames of all inputs, floored at epsilon.
    Each bin's std is taken over that bin's concatenated row, one row at a
    time, so no copy of all the frames is made."""
    if not spectrograms:
        raise ValueError("fit_scaler: no spectrograms given")
    n = spectrograms[0].mags.shape[0]
    if any(s.mags.shape[0] != n for s in spectrograms):
        raise ValueError("fit_scaler: inputs differ in bin count")
    total = sum(s.frames for s in spectrograms)
    if total < 2:
        raise ValueError(f"fit_scaler: need at least 2 frames, got {total}")
    row = np.empty(total)
    std = np.empty(n)
    for i in range(n):
        np.concatenate([s.mags[i] for s in spectrograms], out=row)
        std[i] = row.std()  # population (ddof=0)
    return BinScaler(np.maximum(std, BinScaler.epsilon))


def normalized_pair_rows(ds: Dataset) -> tuple[Mat, Mat]:
    """All frames of all pairs, scaler-applied, one frame per row:
    (mixture rows, target rows), each a (total frames, bins) C-order float32
    array, the rows training runs on. Each pair is divided straight into its
    rows, which rounds the float64 quotient, so no other copy is made. A
    quotient beyond the float32 range becomes inf, which training refuses."""
    if not ds.pairs:
        raise ValueError("dataset has no pairs")
    scale = ds.scaler.per_bin_std[:, None]
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
    """Scaler-applied (mixture, target) frames [start, stop) of one pair."""
    if not 0 <= pair_idx < len(ds.pairs):
        raise ValueError(f"pair index {pair_idx} out of range ({len(ds.pairs)} pairs)")
    mix, tgt = ds.pairs[pair_idx]
    if not 0 <= start < stop <= mix.frames:
        raise ValueError(f"window [{start}, {stop}) out of range for {mix.frames} frames")
    scale = ds.scaler.per_bin_std[:, None]
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
        for mix, tgt in ds.pairs:
            serial.write_str(f, mix.source_id)
            serial.write_mat(f, mix.mags)
            serial.write_mat(f, tgt.mags)
        serial.pack(f, "I", ds.scaler.per_bin_std.shape[0])
        serial.write_f64s(f, ds.scaler.per_bin_std)
        serial.pack(f, "d", ds.scaler.epsilon)


def load_dataset(path: str | Path) -> Dataset:
    with open(path, "rb") as f:
        serial.read_header(f, DATASET_MAGIC, DATASET_VERSION)
        cfg = _read_config(f)
        (n_pairs,) = serial.unpack(f, "I")
        pairs = []
        for _ in range(n_pairs):
            source_id = serial.read_str(f)
            mix = serial.read_mat(f)
            tgt = serial.read_mat(f)
            try:
                pairs.append(
                    (Spectrogram(cfg, mix, source_id), Spectrogram(cfg, tgt, source_id))
                )
            except ValueError as e:
                raise serial.FormatError(f"invalid stored spectrogram: {e}") from None
        (n_bins,) = serial.unpack(f, "I")
        std = serial.read_f64s(f, n_bins)
        epsilon = float(serial.read_f64s(f, 1)[0])
        try:
            return Dataset(cfg, pairs, BinScaler(std, epsilon))
        except ValueError as e:
            raise serial.FormatError(f"invalid stored dataset: {e}") from None
