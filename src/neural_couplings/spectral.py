"""WAV decoding, magnitude STFT, per-bin normalization, segment selection,
and the dataset file codec.

A dataset holds aligned (mixture, target) magnitude-spectrogram pairs plus
the per-bin scaler fitted on the mixtures. Spectrograms are stored raw; the
scaler is applied when frames are drawn for training or couplings extraction
so one file serves both.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import serial
from .linalg import Mat

DATASET_MAGIC = b"NCD1"
DATASET_VERSION = 1

_WINDOW_KINDS = ("hamming",)


class WavError(Exception):
    """A WAV file could not be read or decoded; the message names the path."""


@dataclass(frozen=True)
class StftConfig:
    """Analysis parameters; bins_kept is pinned to the one-sided FFT size."""

    sample_rate: int
    window_len: int
    hop: int
    fft_size: int
    bins_kept: int
    window_kind: str = "hamming"

    def __post_init__(self):
        if self.sample_rate <= 0 or self.window_len <= 0 or self.hop <= 0:
            raise ValueError("sample_rate, window_len, and hop must be positive")
        if self.fft_size < self.window_len:
            raise ValueError(
                f"fft_size {self.fft_size} must be >= window_len {self.window_len}"
            )
        if self.bins_kept != self.fft_size // 2 + 1:
            raise ValueError(
                f"bins_kept {self.bins_kept} must equal fft_size/2+1 = {self.fft_size // 2 + 1}"
            )
        if self.window_kind not in _WINDOW_KINDS:
            raise ValueError(f"unknown window kind {self.window_kind!r}")

    @classmethod
    def default(cls) -> "StftConfig":
        """44.1 kHz analysis: 2048-sample hamming window, 384-sample hop,
        zero-padded to a 4096-point FFT (2049 bins)."""
        return cls(sample_rate=44100, window_len=2048, hop=384, fft_size=4096, bins_kept=2049)


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

    By convention both members of a pair carry the same track source_id; the
    file format stores one id per pair.
    """

    config: StftConfig
    pairs: list[tuple[Spectrogram, Spectrogram]]
    scaler: BinScaler

    def __post_init__(self):
        for mix, tgt in self.pairs:
            if mix.frames != tgt.frames:
                raise ValueError(
                    f"pair {mix.source_id!r}: mixture has {mix.frames} frames, target {tgt.frames}"
                )
            if mix.config != self.config or tgt.config != self.config:
                raise ValueError(f"pair {mix.source_id!r} does not match the dataset config")
        if self.scaler.per_bin_std.shape[0] != self.config.bins_kept:
            raise ValueError("scaler length does not match bins_kept")


def load_wav_mono(path: str | Path, expect_rate: int | None = None) -> np.ndarray:
    """Decode a PCM WAV file to a mono float64 signal in [-1, 1].

    Supports 16/24-bit integer and 32-bit float encodings, mono or stereo
    (stereo is averaged). NaN or infinite float samples are an error, and
    so, if expect_rate is given, is a differing file rate.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise WavError(f"cannot read WAV file {path}: {e}") from None
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise WavError(f"{path}: not a RIFF/WAVE file")

    fmt = data = None
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos : pos + 4]
        (size,) = struct.unpack("<I", raw[pos + 4 : pos + 8])
        payload = raw[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            fmt = payload
        elif cid == b"data":
            data = payload
        pos += 8 + size + (size & 1)
    if fmt is None or len(fmt) < 16 or data is None:
        raise WavError(f"{path}: missing fmt or data chunk")

    audio_format, channels, rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if channels not in (1, 2):
        raise WavError(f"{path}: unsupported channel count {channels}")
    if expect_rate is not None and rate != expect_rate:
        raise WavError(f"{path}: sample rate {rate} does not match expected {expect_rate}")

    if audio_format == 1 and bits == 16:
        x = np.frombuffer(data[: len(data) - len(data) % 2], dtype="<i2").astype(np.float64)
        x /= 32768.0
    elif audio_format == 1 and bits == 24:
        usable = len(data) - len(data) % 3
        b = np.frombuffer(data[:usable], dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        v = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        v = (v ^ 0x800000) - 0x800000  # sign-extend 24-bit
        x = v.astype(np.float64) / 8388608.0
    elif audio_format == 3 and bits == 32:
        x = np.frombuffer(data[: len(data) - len(data) % 4], dtype="<f4").astype(np.float64)
        if not np.isfinite(x).all():
            raise WavError(f"{path}: non-finite float samples")
    else:
        raise WavError(f"{path}: unsupported encoding (format={audio_format}, bits={bits})")

    if channels == 2:
        x = x[: len(x) - len(x) % 2].reshape(-1, 2).mean(axis=1)
    return x


def stft_mag(signal, cfg: StftConfig, source_id: str = "") -> Spectrogram:
    """Magnitude STFT with hamming windowing and zero-padding to fft_size.

    Frame t covers samples [t*hop, t*hop + window_len); the frame count is
    1 + floor((len(signal) - window_len) / hop). Trailing samples that do not
    fill a window are dropped.
    """
    sig = np.asarray(signal, dtype=np.float64)
    if sig.ndim != 1:
        raise ValueError(f"signal must be 1-D, got shape {sig.shape}")
    if sig.shape[0] < cfg.window_len:
        raise ValueError(
            f"signal of {sig.shape[0]} samples is shorter than one {cfg.window_len}-sample window"
        )
    n_frames = 1 + (sig.shape[0] - cfg.window_len) // cfg.hop
    idx = cfg.hop * np.arange(n_frames)[:, None] + np.arange(cfg.window_len)[None, :]
    frames = sig[idx] * np.hamming(cfg.window_len)[None, :]
    spec = np.abs(np.fft.rfft(frames, n=cfg.fft_size, axis=1))[:, : cfg.bins_kept]
    return Spectrogram(cfg, np.ascontiguousarray(spec.T), source_id)


def fit_scaler(spectrograms: list[Spectrogram]) -> BinScaler:
    """Per-bin population std over all frames of all inputs, floored at epsilon."""
    if not spectrograms:
        raise ValueError("fit_scaler: no spectrograms given")
    frames = np.concatenate([s.mags for s in spectrograms], axis=1)
    if frames.shape[1] < 2:
        raise ValueError(f"fit_scaler: need at least 2 frames, got {frames.shape[1]}")
    std = frames.std(axis=1)  # population (ddof=0)
    return BinScaler(np.maximum(std, BinScaler.epsilon))


def normalized_pair_rows(ds: Dataset) -> tuple[Mat, Mat]:
    """All frames of all pairs, scaler-applied, one frame per row:
    (mixture rows, target rows), each a (total frames, bins) C-order array.
    Each pair is divided straight into its rows, so no other copy is made."""
    if not ds.pairs:
        raise ValueError("dataset has no pairs")
    scale = ds.scaler.per_bin_std[:, None]
    total = sum(mix.frames for mix, _ in ds.pairs)
    mix_rows, tgt_rows = np.empty((2, total, ds.config.bins_kept))
    k = 0
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


def _write_config(f, cfg: StftConfig) -> None:
    serial.write_u32(f, cfg.sample_rate)
    serial.write_u32(f, cfg.window_len)
    serial.write_u32(f, cfg.hop)
    serial.write_u32(f, cfg.fft_size)
    serial.write_u32(f, cfg.bins_kept)
    serial.write_u8(f, _WINDOW_KINDS.index(cfg.window_kind))


def _read_config(f) -> StftConfig:
    sample_rate = serial.read_u32(f)
    window_len = serial.read_u32(f)
    hop = serial.read_u32(f)
    fft_size = serial.read_u32(f)
    bins_kept = serial.read_u32(f)
    kind_byte = serial.read_u8(f)
    if kind_byte >= len(_WINDOW_KINDS):
        raise serial.FormatError(f"unknown window kind byte {kind_byte}")
    try:
        return StftConfig(sample_rate, window_len, hop, fft_size, bins_kept, _WINDOW_KINDS[kind_byte])
    except ValueError as e:
        raise serial.FormatError(f"invalid stored config: {e}") from None


def save_dataset(ds: Dataset, path: str | Path) -> None:
    with serial.atomic_writer(path) as f:
        f.write(DATASET_MAGIC)
        serial.write_u32(f, DATASET_VERSION)
        _write_config(f, ds.config)
        serial.write_u32(f, len(ds.pairs))
        for mix, tgt in ds.pairs:
            serial.write_str(f, mix.source_id)
            serial.write_mat(f, mix.mags)
            serial.write_mat(f, tgt.mags)
        serial.write_u32(f, ds.scaler.per_bin_std.shape[0])
        serial.write_f64s(f, ds.scaler.per_bin_std)
        serial.write_f64(f, ds.scaler.epsilon)


def load_dataset(path: str | Path) -> Dataset:
    with open(path, "rb") as f:
        serial.expect_magic(f, DATASET_MAGIC)
        serial.read_version(f, DATASET_VERSION)
        cfg = _read_config(f)
        n_pairs = serial.read_u32(f)
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
        n_bins = serial.read_u32(f)
        std = serial.read_f64s(f, n_bins)
        epsilon = serial.read_f64(f)
        try:
            return Dataset(cfg, pairs, BinScaler(std, epsilon))
        except ValueError as e:
            raise serial.FormatError(f"invalid stored dataset: {e}") from None
