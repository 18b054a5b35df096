"""Synthetic desk-scale dataset: sparse quasi-harmonic targets over a
broadband-plus-harmonic interference floor.

The target imitates a sung line: a sequence of notes, each a fundamental bin
with a short stack of partials whose amplitudes decay geometrically, shaped
by an attack/decay envelope and a slow vibrato that moves the partials across
neighbouring bins, with brief rests between notes. Interference is a walking
bass line of low harmonic stacks whose fundamental changes note to note, plus
a frequency-tilted noise floor that is strictly positive everywhere. Mixtures
are element-wise sums of magnitudes, so mixture >= target holds bin by bin,
and every target column touches at most a quarter of the bins.
"""

from __future__ import annotations

import numpy as np

from .spectral import Dataset, Spectrogram, StftConfig, fit_scale


def _smooth_walk(rng, frames: int, lo: float, hi: float, step: float) -> np.ndarray:
    x = np.empty(frames)
    x[0] = rng.uniform(lo, hi)
    for t in range(1, frames):
        x[t] = min(max(x[t - 1] + rng.normal(0.0, step), lo), hi)
    return x


def _vocal_target(rng, n_bins: int, frames: int) -> np.ndarray:
    target = np.zeros((n_bins, frames))
    max_partials = min(6, max(1, n_bins // 4 - 1))  # keeps every column under 25% occupancy
    f0_hi = max(6, n_bins // 8)
    t = 0
    while t < frames:
        if rng.random() < 0.15:
            t += int(rng.integers(3, 9))  # rest between phrases
            continue
        dur = int(rng.integers(24, 64))
        f0 = int(rng.integers(4, f0_hi + 1))
        n_part = min(max_partials, (n_bins - 1) // f0)
        amp = rng.uniform(0.7, 1.2)
        span = min(dur, frames - t)
        steps = np.arange(span)
        env = np.minimum.reduce([steps / 4.0 + 0.25, np.full(span, 1.0), (dur - steps) / 6.0])
        env = np.clip(env, 0.0, 1.0)
        jitter = rng.uniform(0.85, 1.15, span)
        # vibrato: the k-th partial wobbles around k*f0 with excursion
        # proportional to k, so no fixed per-bin gain reproduces a note
        period = rng.uniform(18.0, 30.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        vib = np.sin(2.0 * np.pi * steps / period + phase)
        for k in range(1, n_part + 1):
            bins = np.clip(np.rint(k * f0 + k * vib).astype(int), 1, n_bins - 1)
            np.add.at(target, (bins, t + steps), amp * (0.62 ** (k - 1)) * env * jitter)
        t += dur
    return target


def _interference(rng, n_bins: int, frames: int) -> np.ndarray:
    out = np.zeros((n_bins, frames))
    # low harmonic stacks whose fundamental wanders note to note, so no
    # bin is reserved for the accompaniment alone
    t = 0
    while t < frames:
        dur = int(rng.integers(30, 80))
        f0 = int(rng.integers(2, 6))
        span = min(dur, frames - t)
        level = rng.uniform(0.6, 1.1) * (0.9 + 0.2 * rng.random(span))
        for k in range(1, min(10, (n_bins - 1) // f0) + 1):
            out[k * f0, t : t + span] += 0.9 * (0.8 ** (k - 1)) * level
        t += dur
    # strictly positive frequency-tilted noise floor
    tilt = (1.0 + np.arange(n_bins)) ** -0.5
    gain = _smooth_walk(rng, frames, 0.35, 0.9, 0.03)
    out += 0.5 * tilt[:, None] * gain[None, :] * rng.uniform(0.3, 1.0, (n_bins, frames))
    return out


def make_synthetic_dataset(
    n_bins: int = 64, frames: int = 720, pairs: int = 2, seed: int = 0
) -> Dataset:
    """Deterministic synthetic dataset with the scale fitted on the mixtures."""
    if n_bins < 16:
        raise ValueError(f"n_bins must be at least 16, got {n_bins}")
    if frames < 2 or pairs < 1:
        raise ValueError("need at least 2 frames and 1 pair")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    fft_size = 2 * (n_bins - 1)
    cfg = StftConfig(
        sample_rate=8000,
        window_len=fft_size,
        hop=max(1, fft_size // 4),
        fft_size=fft_size,
    )
    pair_list: list[tuple[Spectrogram, Spectrogram]] = []
    for pair_idx in range(pairs):
        rng = np.random.default_rng([seed, pair_idx])
        target = _vocal_target(rng, n_bins, frames)
        mixture = target + _interference(rng, n_bins, frames)
        pair_list.append((Spectrogram(mixture), Spectrogram(target)))
    ids = [f"synth{pair_idx:02d}" for pair_idx in range(pairs)]
    return Dataset(cfg, ids, pair_list, fit_scale([mix for mix, _ in pair_list]))
