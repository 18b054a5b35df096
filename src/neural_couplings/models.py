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

# the .ncm header stores a checkpoint's architecture as its index here
ARCH_TAGS = ("dae", "mss-dae", "sf")


@dataclass(frozen=True)
class Arch:
    """Architecture tag plus hidden-layer count (only mss-dae has hidden layers)."""

    tag: str
    hidden_layers: int = 0

    def __post_init__(self):
        if self.tag not in ARCH_TAGS:
            raise ValueError(f"unknown architecture tag {self.tag!r}")
        if self.tag in ("dae", "sf") and self.hidden_layers != 0:
            raise ValueError(f"{self.tag} takes no hidden layers")
        if self.tag == "mss-dae" and self.hidden_layers < 1:
            raise ValueError("mss-dae needs at least one hidden layer")

    @property
    def n_layers(self) -> int:
        return 2 + self.hidden_layers

    @property
    def uses_mask(self) -> bool:
        return self.tag == "sf"

    @classmethod
    def dae(cls) -> "Arch":
        return cls("dae")

    @classmethod
    def mss_dae(cls, hidden_layers: int = 2) -> "Arch":
        return cls("mss-dae", hidden_layers)

    @classmethod
    def sf(cls) -> "Arch":
        return cls("sf")


@dataclass
class ModelParams:
    """Per-layer (W, b) with every W square n x n and every b an n x 1 column."""

    arch: Arch
    layers: list[tuple[Mat, Mat]]
    n: int

    def __post_init__(self):
        if len(self.layers) != self.arch.n_layers:
            raise ValueError(
                f"{self.arch.tag} wants {self.arch.n_layers} layers, got {len(self.layers)}"
            )
        for i, (w, b) in enumerate(self.layers):
            if w.shape != (self.n, self.n):
                raise ShapeError(f"layer {i}: W has shape {w.shape}, expected {(self.n, self.n)}")
            if b.shape != (self.n, 1):
                raise ShapeError(f"layer {i}: b has shape {b.shape}, expected {(self.n, 1)}")


@dataclass
class Checkpoint:
    params: ModelParams
    seed: int
    epochs: int


def init_params(arch: Arch, n: int, rng: np.random.Generator) -> ModelParams:
    """Weights drawn normal * sqrt(1/n) in layer order, biases zero."""
    layers = [
        (glorot_like_init(rng, n, n, n), np.zeros((n, 1))) for _ in range(arch.n_layers)
    ]
    return ModelParams(arch, layers, n)


def forward(params: ModelParams, x_batch) -> list[Mat]:
    """Run the model on a batch of column frames (n x T).

    Returns the activations [X, A_1, ..., A_L]: the checked float64 input
    and each layer's ReLU output, the one array kept per layer. Each ReLU is
    taken in place on its pre-activation, which backward never needs, since
    relu'(Z) is A > 0.
    """
    x = np.asarray(x_batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != params.n:
        raise ShapeError(f"input batch has shape {x.shape}, expected ({params.n}, T)")
    if not np.isfinite(x).all():
        raise ValueError("forward: non-finite values in input batch")
    acts = [x]
    for w, b in params.layers:
        z = w @ acts[-1]
        z += b
        acts.append(np.maximum(z, 0.0, out=z))
    return acts


def model_output(params: ModelParams, acts: list[Mat]) -> Mat:
    """The spectral estimate of a forward pass: A_L, or for sf the mask A_L
    applied to the input, A_L * X."""
    return acts[-1] * acts[0] if params.arch.uses_mask else acts[-1]


def backward(
    params: ModelParams, acts: list[Mat], x_target, grads: list[tuple[Mat, Mat]]
) -> float:
    """Write the analytic MSE gradient of every layer into grads; return the MSE.

    acts is what forward returned. grads holds one preallocated (dW, db)
    pair per layer, in layer order, of the shapes of params.layers; every
    value in it is overwritten. The residual output - target is formed once
    and gives both the loss, mean((output - target)^2) over the whole batch,
    and the gradient. For sf the loss gradient reaches the decoder through
    the masking product, so it is weighted by the input before entering the
    ReLU chain. relu'(Z_l) is taken as A_l > 0, which equals Z_l > 0 for
    every float, ±0 and NaN included.

    Every product and reduction yields a C-order (n, B) array and sums in the
    same order whatever the layout of the input and x_target, so a batch
    gathered frames-major gives the same bits as one gathered by column.
    """
    if len(acts) != len(params.layers) + 1:
        raise ValueError(f"{len(acts)} activations for {len(params.layers)} layers")
    tgt = np.asarray(x_target, dtype=np.float64)
    if tgt.shape != acts[-1].shape:
        raise ShapeError(f"target shape {tgt.shape} differs from output {acts[-1].shape}")
    n, t = tgt.shape
    # d is the loss gradient with respect to each layer's output, then, after
    # the relu mask, its pre-activation; it is C-order from here on
    d = np.subtract(model_output(params, acts), tgt, order="C")
    loss = float(np.mean(d * d))
    d *= 2.0 / (n * t)
    if params.arch.uses_mask:
        d *= acts[0]

    for layer in reversed(range(len(params.layers))):
        d *= acts[layer + 1] > 0.0
        dw, db = grads[layer]
        np.matmul(d, acts[layer].T, out=dw)
        np.sum(d, axis=1, keepdims=True, out=db)
        if layer > 0:
            d = params.layers[layer][0].T @ d
    return loss


def save_checkpoint(path: str | Path, params: ModelParams, seed: int, epochs: int) -> None:
    for i, (w, b) in enumerate(params.layers):
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"refusing to save checkpoint: layer {i} has non-finite values")
    with serial.atomic_writer(path) as f:
        f.write(CHECKPOINT_MAGIC)
        serial.write_u32(f, CHECKPOINT_VERSION)
        serial.write_u8(f, ARCH_TAGS.index(params.arch.tag))
        serial.write_u32(f, params.n)
        serial.write_u32(f, len(params.layers))
        for w, b in params.layers:
            serial.write_mat(f, w)
            serial.write_mat(f, b)
        serial.write_u64(f, seed)
        serial.write_u32(f, epochs)


def _read_header(f) -> tuple[str, int]:
    """The architecture tag and width n, after the magic and version."""
    serial.expect_magic(f, CHECKPOINT_MAGIC)
    serial.read_version(f, CHECKPOINT_VERSION)
    tag_byte = serial.read_u8(f)
    if tag_byte >= len(ARCH_TAGS):
        raise serial.FormatError(f"unknown architecture byte {tag_byte}")
    return ARCH_TAGS[tag_byte], serial.read_u32(f)


def checkpoint_width(path: str | Path) -> int:
    """A checkpoint's width n, read and checked from its header alone."""
    with open(path, "rb") as f:
        return _read_header(f)[1]


def load_checkpoint(path: str | Path) -> Checkpoint:
    with open(path, "rb") as f:
        tag, n = _read_header(f)
        n_layers = serial.read_u32(f)
        layers = [(serial.read_mat(f), serial.read_mat(f)) for _ in range(n_layers)]
        seed = serial.read_u64(f)
        epochs = serial.read_u32(f)
    try:
        arch = Arch(tag, hidden_layers=n_layers - 2)  # checks the layer count
        return Checkpoint(ModelParams(arch, layers, n), seed, epochs)
    except (ValueError, ShapeError) as e:
        raise serial.FormatError(f"malformed checkpoint: {e}") from None
