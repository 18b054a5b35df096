"""The matrix type, the shape error, seeding and the weight-init rule shared
by every other module.

All arithmetic elsewhere is plain numpy on float64 2-D arrays; shapes are
validated where data enters (loaders, ``forward``, the metrics), not inside
every product.
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
