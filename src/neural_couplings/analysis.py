"""Metrics and reporting for couplings matrices.

TOD-R scores diagonal dominance: sqrt(N) * trace(|C|) over the L1 mass of
the off-diagonal part; it is undefined (None) when the off-diagonal mass is
exactly zero. SNR compares spectral estimates in dB, capped at +300; it is
undefined (None) when the reference has no energy, as a window of silent
target or of dead model output has. The
evaluation of a segment clips the couplings estimate C X at zero before
scoring, and for skip-filtering models multiplies it with the input, mirroring
the model's own masking.
"""

from __future__ import annotations

import logging
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import serial
from .linalg import Mat, ShapeError
from .models import ModelParams, forward, model_output

SNR_CAP_DB = 300.0

log = logging.getLogger(__name__)


@dataclass
class MetricsRecord:
    arch: str
    method: str  # student | compositional | linear | identity
    segment: str
    tod_r: float | None
    snr_model_db: float | None
    snr_truth_db: float | None


def linear_composition(params: ModelParams) -> Mat:
    """Plain product of the weight matrices, encoder applied first; biases ignored."""
    c = params.layers[0][0]
    for w, _ in params.layers[1:]:
        c = w @ c
    return c


def tod_r(c: Mat) -> float | None:
    """sqrt(N) * trace(|C|) / l1(off-diagonal of C); None when that mass is zero."""
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ShapeError(f"tod_r: matrix must be square, got {c.shape}")
    off = np.abs(c)
    np.fill_diagonal(off, 0.0)
    off_mass = float(off.sum())
    if off_mass == 0.0:
        return None
    return math.sqrt(c.shape[0]) * float(np.abs(np.diagonal(c)).sum()) / off_mass


def snr_db(reference: Mat, estimate: Mat) -> float | None:
    """10 log10 of reference energy over error energy, capped at +300 dB;
    None when the reference is all zero."""
    ref = np.asarray(reference, dtype=np.float64)
    est = np.asarray(estimate, dtype=np.float64)
    if ref.shape != est.shape:
        raise ShapeError(f"snr_db: shapes {ref.shape} and {est.shape} differ")
    ref_energy = float((ref * ref).sum())
    if ref_energy == 0.0:
        return None
    err = ref - est
    err_energy = float((err * err).sum())
    if err_energy == 0.0:
        return SNR_CAP_DB
    return min(10.0 * math.log10(ref_energy / err_energy), SNR_CAP_DB)


def couplings_estimate(params: ModelParams, c: Mat, x_mix: Mat) -> Mat:
    """C X clipped at zero; skip-filtering models then mask the input with it."""
    return model_output(params, [x_mix, np.maximum(c @ x_mix, 0.0)])


def evaluate_segment(
    params: ModelParams, x_mix: Mat, x_true: Mat, scored: list[tuple[str, Mat | None]],
    segment: str,
) -> list[MetricsRecord]:
    """Score (method, C) pairs on one segment from one run of the model.

    The model runs once on x_mix, and its spectral output is the model
    reference of every record. A given C scores the clipped couplings
    estimate of C, with TOD-R from C, whatever the method's name. C = None
    is the identity baseline: it scores the raw mixture itself, with no
    TOD-R, and needs no n x n identity matrix.
    """
    acts = forward(params, x_mix)
    x, reference = acts[0], model_output(params, acts)
    del acts
    records = []
    for method, c in scored:
        if c is None:
            tod, est = None, x
        else:
            c = np.asarray(c, dtype=np.float64)
            if c.shape != (params.n, params.n):
                raise ShapeError(
                    f"couplings matrix has shape {c.shape}, model is {params.n}-dimensional")
            tod, est = tod_r(c), couplings_estimate(params, c, x)
        records.append(MetricsRecord(params.tag, method, segment, tod,
                                     snr_db(reference, est), snr_db(x_true, est)))
    return records


def _stats(values: list[float | None]) -> dict:
    """Mean and population std of the defined values, both None if none is."""
    arr = np.asarray([v for v in values if v is not None], dtype=np.float64)
    if not arr.size:
        return {"mean": None, "std": None}
    return {"mean": float(arr.mean()), "std": float(arr.std())}


def aggregate(records: list[MetricsRecord]) -> dict:
    """Per (arch, method) cell: count, SNR mean/std over the defined values,
    TOD-R mean/std over the defined values with the undefined count reported
    alongside. One warning counts the records with an undefined SNR."""
    cells: dict[str, dict[str, dict]] = {}
    for arch in sorted({r.arch for r in records}):
        for method in sorted({r.method for r in records if r.arch == arch}):
            group = [r for r in records if r.arch == arch and r.method == method]
            cell = {
                "n": len(group),
                "snr_model_db": _stats([r.snr_model_db for r in group]),
                "snr_truth_db": _stats([r.snr_truth_db for r in group]),
            }
            defined = [r.tod_r for r in group if r.tod_r is not None]
            tod = {"defined": len(defined), "excluded": len(group) - len(defined)}
            if defined:
                tod.update(_stats(defined))
            elif method != "identity":  # the identity has no off-diagonal mass by design
                log.warning("TOD-R undefined for every record in cell (%s, %s)", arch, method)
            cell["tod_r"] = tod
            cells.setdefault(arch, {})[method] = cell
    silent = sum(r.snr_model_db is None or r.snr_truth_db is None for r in records)
    if silent:
        log.warning("SNR undefined for %d of %d records: their reference is all zero",
                    silent, len(records))
    return {"cells": cells, "record_count": len(records)}


def write_report_csv(records: list[MetricsRecord], path) -> None:
    """Flat rows, fixed column order, sorted by (arch, method, segment); an
    undefined TOD-R or SNR is a blank cell."""
    header = ("arch", "method", "segment", "tod_r", "snr_model_db", "snr_truth_db")
    rows = ((r.arch, r.method, r.segment, r.tod_r, r.snr_model_db, r.snr_truth_db)
            for r in sorted(records, key=lambda r: (r.arch, r.method, r.segment)))
    serial.write_csv(path, header, rows)


def _quantize(img: Mat) -> np.ndarray:
    return np.clip(np.rint(img * 255.0), 0.0, 255.0).astype(np.uint8)


def _png_bytes(pixels: np.ndarray) -> bytes:
    """Minimal 8-bit grayscale PNG: IHDR + one zlib IDAT + IEND."""
    h, w = pixels.shape
    raw = b"".join(b"\x00" + pixels[r].tobytes() for r in range(h))

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data))
            + tag
            + data
            + struct.pack(">I", zlib.crc32(tag + data))
        )

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(raw, 9))
        + chunk(b"IEND", b"")
    )


def check_heatmap_path(path) -> None:
    """Heatmaps are PNG files: any path not ending in .png is a ValueError."""
    if Path(path).suffix != ".png":
        raise ValueError(f"heatmap path {str(path)!r} must end in .png")


def export_heatmap(c: Mat, path, *, row_normalize: bool = False) -> None:
    """Render |C| as an 8-bit grayscale PNG, row 0 at the top: each row
    scaled by its own maximum with row_normalize, else the image by its
    global maximum."""
    check_heatmap_path(path)
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2:
        raise ShapeError(f"heatmap: expected a matrix, got shape {c.shape}")
    img = np.abs(c)
    if row_normalize:
        row_max = img.max(axis=1, keepdims=True)
        img = np.divide(img, row_max, out=np.zeros_like(img), where=row_max > 0)
    else:
        global_max = img.max()
        if global_max > 0:
            img = img / global_max
    serial.write_file_atomic(path, _png_bytes(_quantize(img)))
