"""The three shallow separation models and their analytic gradients.

Every layer is a square linear map followed by ReLU. The plain denoising
autoencoder (dae) is encoder + decoder; the deeper variant (mss-dae) inserts
extra hidden layers between them; the skip-filtering model (sf) multiplies
its decoder output element-wise with the input, so the decoder learns a mask
rather than the spectra themselves.

A forward pass is its activations [X, A_1, ..., A_L]: the input and each
layer's ReLU output, one array per layer. The last one, A_L, is the decoder
output (the mask for sf); model_output applies the sf mask, and backward
needs nothing else, because relu'(Z) is A > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import serial
from .linalg import Mat, ShapeError, glorot_like_init

CHECKPOINT_MAGIC = b"NCM1"
CHECKPOINT_VERSION = 1

# each family's tag and the number of layers init_params builds for it; the
# .ncm header stores a family as its index in this order
FAMILIES = {"dae": 2, "mss-dae": 4, "sf": 2}


@dataclass
class ModelParams:
    """A family tag and its per-layer (W, b): every W square n x n and every b
    an n x 1 column. dae and sf have 2 layers; mss-dae has at least 3, so a
    checkpoint of any depth loads."""

    tag: str
    layers: list[tuple[Mat, Mat]]

    def __post_init__(self):
        if self.tag not in FAMILIES:
            raise ValueError(f"unknown architecture tag {self.tag!r}")
        count = len(self.layers)
        if self.tag == "mss-dae" and count < 3:
            raise ValueError(f"mss-dae wants at least 3 layers, got {count}")
        if self.tag != "mss-dae" and count != 2:
            raise ValueError(f"{self.tag} wants 2 layers, got {count}")
        n = self.n
        for i, (w, b) in enumerate(self.layers):
            if w.shape != (n, n):
                raise ShapeError(f"layer {i}: W has shape {w.shape}, expected {(n, n)}")
            if b.shape != (n, 1):
                raise ShapeError(f"layer {i}: b has shape {b.shape}, expected {(n, 1)}")

    @property
    def n(self) -> int:
        """The width: the row count of the first W."""
        return self.layers[0][0].shape[0]

    @property
    def uses_mask(self) -> bool:
        return self.tag == "sf"


@dataclass
class Checkpoint:
    params: ModelParams
    seed: int
    epochs: int


def init_params(tag: str, n: int, rng: np.random.Generator) -> ModelParams:
    """The family's FAMILIES[tag] layers, weights drawn normal * sqrt(1/n) in
    layer order, biases zero."""
    layers = [(glorot_like_init(rng, n, n, n), np.zeros((n, 1))) for _ in range(FAMILIES[tag])]
    return ModelParams(tag, layers)


def forward(params: ModelParams, x_batch) -> list[Mat]:
    """Run the model on a batch of column frames (n x T).

    Returns the activations [X, A_1, ..., A_L]: the checked input, in the
    weights' dtype (float64 for a loaded checkpoint, float32 in training),
    and each layer's ReLU output, the one array kept per layer. Each ReLU is
    taken in place on its pre-activation, which backward never needs, since
    relu'(Z) is A > 0.
    """
    x = np.asarray(x_batch, dtype=params.layers[0][0].dtype)
    if x.ndim != 2 or x.shape[0] != params.n:
        raise ShapeError(f"input batch has shape {x.shape}, expected ({params.n}, T)")
    if not np.isfinite(x).all():
        raise ValueError("forward: non-finite values in input batch")
    return forward_unchecked(params, x)


def forward_unchecked(params: ModelParams, x: Mat) -> list[Mat]:
    """forward without its input checks, for a caller that checked its data
    once where it entered: x must be a finite (n, T) array of the weights'
    dtype. Each product reads a C-order batch, which BLAS reads fastest (at
    64 bins W X took 16 us on a transposed view, 9 us on a C-order copy); an
    input of another layout is copied for the first product only, and stays
    the returned X.
    """
    acts = [x]
    for w, b in params.layers:
        z = w @ np.ascontiguousarray(acts[-1])
        z += b
        acts.append(np.maximum(z, 0.0, out=z))
    return acts


def model_output(params: ModelParams, acts: list[Mat]) -> Mat:
    """The spectral estimate of a forward pass: A_L, or for sf the mask A_L
    applied to the input, A_L * X."""
    return acts[-1] * acts[0] if params.uses_mask else acts[-1]


def backward(
    params: ModelParams, acts: list[Mat], x_target, grads: list[tuple[Mat, Mat]]
) -> float:
    """Write the analytic MSE gradient of every layer into grads; return the MSE.

    acts is what forward or forward_unchecked returned. grads holds one
    preallocated (dW, db) pair per layer, in layer order, of the shapes of
    params.layers; every value in it is overwritten. The residual
    output - target is formed once and gives both the loss,
    mean((output - target)^2) over the whole batch, and the gradient. For sf
    the loss gradient reaches the decoder through the masking product, so it is
    weighted by the input before entering the ReLU chain. relu'(Z_l) is taken
    as A_l > 0, which equals Z_l > 0 for every float, ±0 and NaN included.

    The loss is one BLAS dot of the residual with itself, and each bias
    gradient the product of d with a ones column (at 64 bins 1 against 9 us
    for np.mean, and 1.4 against 5.4 us for np.sum). Each product reads
    its batch operand in C order; dW = d A^T takes a C-order copy of A's
    transpose, which costs less than BLAS loses on the transposed view
    (9.1 + 3.3 against 17 us at 64 bins). The products write C-order arrays
    and sum in the same order whatever the layout of the input and
    x_target, so a batch gathered frames-major gives the same bits as one
    gathered by column.
    """
    if len(acts) != len(params.layers) + 1:
        raise ValueError(f"{len(acts)} activations for {len(params.layers)} layers")
    tgt = np.asarray(x_target, dtype=acts[-1].dtype)
    if tgt.shape != acts[-1].shape:
        raise ShapeError(f"target shape {tgt.shape} differs from output {acts[-1].shape}")
    # d is the loss gradient with respect to each layer's output, then, after
    # the relu mask, its pre-activation; it is C-order from here on
    d = np.subtract(model_output(params, acts), tgt, order="C")
    r = d.reshape(-1)
    loss = float(np.dot(r, r)) / r.size
    d *= 2.0 / r.size
    if params.uses_mask:
        d *= acts[0]
    ones = np.ones((d.shape[1], 1), dtype=d.dtype)

    for layer in reversed(range(len(params.layers))):
        d *= acts[layer + 1] > 0.0
        dw, db = grads[layer]
        np.matmul(d, np.ascontiguousarray(acts[layer].T), out=dw)
        np.matmul(d, ones, out=db)
        if layer > 0:
            d = params.layers[layer][0].T @ d
    return loss


def save_checkpoint(path: str | Path, params: ModelParams, seed: int, epochs: int) -> None:
    for i, (w, b) in enumerate(params.layers):
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"refusing to save checkpoint: layer {i} has non-finite values")
    with serial.atomic_writer(path) as f:
        serial.write_header(f, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        serial.pack(f, "BII", list(FAMILIES).index(params.tag), params.n, len(params.layers))
        for w, b in params.layers:
            serial.write_mat(f, w)
            serial.write_mat(f, b)
        serial.pack(f, "QI", seed, epochs)


def _read_header(f) -> tuple[str, int]:
    """The architecture tag and width n, after the magic and version. The
    layer count that follows is left unread, so checkpoint_width needs only
    these 13 bytes."""
    serial.read_header(f, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    tag_byte, n = serial.unpack(f, "BI")
    if tag_byte >= len(FAMILIES):
        raise serial.FormatError(f"unknown architecture byte {tag_byte}")
    return list(FAMILIES)[tag_byte], n


def checkpoint_width(path: str | Path) -> int:
    """A checkpoint's width n, read and checked from its header alone."""
    with open(path, "rb") as f:
        return _read_header(f)[1]


def load_checkpoint(path: str | Path) -> Checkpoint:
    with open(path, "rb") as f:
        tag, n = _read_header(f)
        (count,) = serial.unpack(f, "I")
        layers = [(serial.read_mat(f), serial.read_mat(f)) for _ in range(count)]
        seed, epochs = serial.unpack(f, "QI")
    try:
        params = ModelParams(tag, layers)
        if params.n != n:
            raise ValueError(f"layers are {params.n} wide, the header says {n}")
    except ValueError as e:
        raise serial.FormatError(f"malformed checkpoint: {e}") from None
    return Checkpoint(params, seed, epochs)
