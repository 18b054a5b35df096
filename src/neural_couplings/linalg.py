"""The matrix type, the shape error, seeding, the weight-init rule and the
float32 rounding shared by every other module.

All arithmetic elsewhere is plain numpy in float64, except that training
and couplings extraction run in float32 (``single``). Training runs on
(K, n, B) stacks of K models, the compositional gradient on (L, n, n)
stacks of its layers, and the rest on 2-D arrays. Shapes are validated
where data enters (loaders, ``forward``, the metrics), not inside every
product.
"""

from __future__ import annotations

import math

import numpy as np

Mat = np.ndarray


class ShapeError(ValueError):
    """Incompatible operand shapes; the message names both."""


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; equal seeds yield bit-identical streams."""
    return np.random.default_rng(seed)


def glorot_like_init(rng: np.random.Generator, rows: int, cols: int, n: int) -> Mat:
    """Standard-normal draw scaled by sqrt(1/n)."""
    if n <= 0:
        raise ValueError(f"glorot_like_init: n must be positive, got {n}")
    return rng.standard_normal((rows, cols)) * math.sqrt(1.0 / n)


def single(a: Mat, what: str, error: type[Exception], stage: str) -> Mat:
    """a rounded to float32, or a itself if it is float32 already; raises
    error, naming what and the stage that runs in float32, if a value is
    non-finite or rounds outside the float32 range."""
    # an overflowing cast is the condition checked here, not a numpy error
    with np.errstate(over="ignore"):
        s = a.astype(np.float32, copy=False)
    if not np.isfinite(s).all():
        top = float(np.finfo(np.float32).max)
        raise error(f"{what} holds values that are non-finite or outside the float32 range "
                    f"|v| <= {top:.6g}, in which {stage} runs")
    return s
