"""Bias-corrected Adam and the mini-batch training loop.

Adam steps one parameter array in place, in the folded form of Kingma & Ba
(2015, sec. 2): the same update as the textbook recipe in exact arithmetic,
in fewer elementwise passes. Training keeps every weight in one flat vector
and its gradient in another, shuffles all frames globally each epoch, drops
the learning rate by half after a run of non-improving epochs, stops after a
longer run, and returns the parameters snapshotted at the best epoch loss
together with the rule that ended the run.

Precision: Adam follows its parameter's dtype, and training runs in float32.
The rows and the initial weights (drawn in float64) are rounded to float32
once per run; the weights, gradient, best-epoch snapshot and Adam's state
are float32, and the returned weights are float64 again, float32-exact.
Float32 halves the bytes every product moves and doubles its SIMD width; the
README's Precision section gives how far it moves the losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import serial
from .linalg import Mat, make_rng, single
from .models import Arch, ModelParams, backward, forward_unchecked, init_params

# An epoch improves only if its loss beats the best by more than this,
# relatively; equal-to-the-eye plateaus do not reset the patience counters.
# It sits 19x above the rounding of a float32 epoch loss (at most 5.3e-8
# relative to the float64 loss of the same weights, measured over the 21
# desk runs), so that the loss, not its rounding, decides.
IMPROVEMENT_REL = 1e-6
# After each HALVE_PATIENCE non-improving epochs in a row the learning rate
# halves; after STOP_PATIENCE the run stops.
HALVE_PATIENCE = 2
STOP_PATIENCE = 4
# Frames per mini-batch, and the learning rate the schedule starts from
BATCH_SIZE = 128
INITIAL_LR = 1e-3

# Adam's moment decay rates and denominator floor
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

# Elements per Adam chunk: the scratch buffers hold at most this many, 65 KiB
# each in float32. It is the size of the largest n=64 parameter, the 4-layer
# mss-dae's 4 (64^2 + 64) weights, so every n=64 step is a single chunk.
CHUNK = 16640


class TrainingError(RuntimeError):
    pass


class Adam(object):
    """Adam over one parameter array, updated in place; the moment buffers
    live here and take the array's shape and dtype on the first step.

    Its state is the two moments, P elements each for a P-element parameter,
    stored as m / (1 - b1) and v / (1 - b2): `v` holds 1000 times the textbook
    second moment, so in float32 a gradient entry above about 5.8e17 can
    overflow it. Two scratch buffers of at most CHUNK elements each complete
    it: a step runs over equal-size chunks of the flattened parameter, so a
    large parameter needs no parameter-sized temporaries. The parameter must be
    C-contiguous, so that the chunks are views that the update writes through.
    Callers with several tensors keep them as views of one flat array. The
    learning rate is a plain attribute so schedules can rewrite it.
    """

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m: Mat | None = None
        self.v: Mat | None = None
        self._scratch: Mat | None = None
        # per chunk: its bounds and its views of m, v and the scratch rows
        self._chunks: list[tuple[int, int, Mat, Mat, Mat, Mat]] = []

    def step(self, p: Mat, g: Mat) -> None:
        if self.m is None:
            # one allocation for both moments and the two scratch rows: as
            # separate blocks they sat in malloc's heap and made it trim and
            # re-fault pages every extraction iteration (6-12x the faults).
            # Equal chunks, so that no chunk is a short tail.
            size = p.size
            chunks = max(1, -(-size // CHUNK))
            width = max(1, -(-size // chunks))
            state = np.zeros(2 * size + 2 * width, dtype=p.dtype)
            m, v = state[:size], state[size : 2 * size]
            self.m, self.v = m.reshape(p.shape), v.reshape(p.shape)
            self._scratch = state[2 * size :].reshape(2, width)
            s, u = self._scratch
            for lo in range(0, size, width):
                hi = min(lo + width, size)
                self._chunks.append((lo, hi, m[lo:hi], v[lo:hi], s[: hi - lo], u[: hi - lo]))
        if not g.shape == p.shape == self.m.shape:
            raise TrainingError(f"grad shape {g.shape}, param {p.shape}, moments {self.m.shape}")
        if not p.flags.c_contiguous:
            # reshape(-1) would copy it, and the update would be lost
            raise TrainingError("parameter array is not C-contiguous")
        if not np.isfinite(g).all():
            raise TrainingError("non-finite gradient")
        self.t += 1
        # The moments are stored as M = m / (1 - b1) and V = v / (1 - b2), so
        # M = b1 M + g and V = b2 V + g g, and the textbook update
        # lr (m / bc1) / (sqrt(v / bc2) + eps) is k M / (sqrt(V) + eps c)
        # with c = sqrt(bc2 / (1 - b2)) and k = lr c (1 - b1) / bc1: the bias
        # corrections fold into two scalars per step (Kingma & Ba 2015, sec.
        # 2), leaving 10 elementwise passes where the textbook order takes 14.
        # Each runs in place, chunk by chunk, on preallocated buffers:
        # allocating parameter-sized temporaries every step made a 4-layer
        # n=257 step 3x slower. Elementwise ufuncs round each element alone,
        # so chunking changes no bit.
        c = math.sqrt((1.0 - BETA2**self.t) / (1.0 - BETA2))
        k = self.lr * c * (1.0 - BETA1) / (1.0 - BETA1**self.t)
        eps = EPS * c
        p_flat, g_flat = p.reshape(-1), g.reshape(-1)
        for lo, hi, m, v, s, u in self._chunks:
            g_c, p_c = g_flat[lo:hi], p_flat[lo:hi]
            m *= BETA1
            m += g_c
            v *= BETA2
            v += np.multiply(g_c, g_c, out=s)
            np.sqrt(v, out=s)
            s += eps
            np.divide(m, s, out=u)
            u *= k
            p_c -= u


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be positive")


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    lr: float


@dataclass
class TrainResult:
    params: ModelParams
    history: list[EpochStats]
    best_loss: float
    # "patience" when STOP_PATIENCE non-improving epochs ended the run,
    # "max_epochs" when the epoch budget ran out first
    stopped_by: str

    @property
    def epochs(self) -> int:
        return len(self.history)


def _flat(layers: list[tuple[Mat, Mat]]) -> Mat:
    """Every W and b raveled into one vector, in the order W0, b0, W1, b1, ...."""
    return np.concatenate([a.ravel() for layer in layers for a in layer])


def _params_view(arch: Arch, theta: Mat, n: int) -> ModelParams:
    """ModelParams whose W and b are views of the flat vector theta."""
    rows = theta.reshape(arch.n_layers, n * n + n)
    layers = [(r[: n * n].reshape(n, n), r[n * n :].reshape(n, 1)) for r in rows]
    return ModelParams(arch, layers, n)


def train(arch: Arch, rows: tuple[Mat, Mat], cfg: TrainConfig) -> TrainResult:
    """Train one model on rows = (mixture rows, target rows), the
    normalized frames one per row as `spectral.normalized_pair_rows` builds
    them; deterministic given (arch, rows, cfg).

    Training runs in float32 (see the module docstring): float64 rows are
    rounded once per call and float32 rows are used as they are; a row or
    initial weight outside the float32 range is refused with TrainingError
    before the first epoch. The returned weights are float64.

    All weights live in one flat vector that Adam updates in place, and the
    gradient in a second one that `backward` overwrites every batch; the
    model's W and b and the per-layer gradients are views of them, so no batch
    rebuilds the parameters or concatenates the gradient. A batch gathers
    contiguous rows and hands their (n, B) transposed view to
    `forward_unchecked` and `backward`; the bits match a column gather. Every
    row was checked once on entry, by the float32 range guard, so no batch is
    checked again. The rows are only read, so one copy serves every seed of a
    run. The best epoch's weights are copied into one snapshot buffer held for
    the run.
    """
    mix_rows, tgt_rows = (
        single(r, f"a {what} row", TrainingError, "training")
        for r, what in zip(rows, ("mixture", "target"))
    )
    if mix_rows.shape != tgt_rows.shape:
        raise ValueError(f"mixture rows {mix_rows.shape} and target rows {tgt_rows.shape} differ")
    total_frames, n = mix_rows.shape
    theta = single(
        _flat(init_params(arch, n, make_rng(cfg.seed)).layers),
        "the initial weight vector", TrainingError, "training",
    )
    params = _params_view(arch, theta, n)
    grad = np.empty_like(theta)
    grads = _params_view(arch, grad, n).layers
    adam = Adam(INITIAL_LR)

    best_loss = math.inf
    best_theta = theta.copy()
    history: list[EpochStats] = []
    bad_epochs = 0
    stopped_by = "max_epochs"

    for epoch in range(cfg.max_epochs):
        order = np.random.default_rng([cfg.seed, epoch]).permutation(total_frames)
        total_se = 0.0
        for batch_idx, k in enumerate(range(0, total_frames, BATCH_SIZE)):
            cols = order[k : k + BATCH_SIZE]
            yb = tgt_rows[cols].T
            batch_loss = backward(params, forward_unchecked(params, mix_rows[cols].T), yb, grads)
            if not math.isfinite(batch_loss):
                raise TrainingError(
                    f"training diverged: non-finite loss at epoch {epoch}, batch {batch_idx}"
                )
            total_se += batch_loss * yb.size
            adam.step(theta, grad)

        epoch_loss = total_se / tgt_rows.size
        history.append(EpochStats(epoch, epoch_loss, adam.lr))

        if epoch_loss < best_loss * (1.0 - IMPROVEMENT_REL):
            best_loss = epoch_loss
            np.copyto(best_theta, theta)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= STOP_PATIENCE:
                stopped_by = "patience"
                break
            if bad_epochs % HALVE_PATIENCE == 0:
                adam.lr *= 0.5

    # free the run's state before the float64 copy of the weights is made
    del params, grads, theta, grad, adam
    return TrainResult(
        _params_view(arch, best_theta.astype(np.float64), n), history, best_loss, stopped_by
    )


def write_history_csv(history: list[EpochStats], path) -> None:
    lines = ["epoch,mean_loss,lr"]
    lines += [f"{h.epoch},{h.mean_loss!r},{h.lr!r}" for h in history]
    serial.write_file_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
