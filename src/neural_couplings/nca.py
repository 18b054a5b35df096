"""Couplings extraction: approximate a trained model by one square matrix C.

Given normalized mixture frames X and the model's last-layer output Y (the
spectral estimate, or the mask for skip-filtering models), minimize
l1(Y - C X) over C with Adam. Two strategies:

student        C is a free matrix; the subgradient is sign(C X - Y) X^T.
compositional  C is rebuilt every iteration as the product over layers of
               (G_l . W_l), encoder factor applied first, where each gate
               G_l = relu(P_l (W_l + b_l)^T) is driven by a free matrix P_l
               and (W_l + b_l) adds b_l[j] to every element of column j.
               Only the P_l are optimized; W_l and b_l stay frozen.

Each strategy has one objective function of the plain arrays X and Y
returning the loss and the gradients from one pass, evaluated once per Adam
iteration: the residual R = C X - Y is formed once and shared by the loss
|R| and the gradient. run_nca takes X and Y from one forward pass of the
model, its first and last activations, and keeps nothing else of it.
Correctness is pinned by finite-difference tests rather than by trusting
any printed derivation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import serial
from .linalg import Mat, glorot_like_init, make_rng
from .models import ModelParams, forward
from .training import Adam

COUPLINGS_MAGIC = b"NCC1"
COUPLINGS_VERSION = 1

STRATEGIES = ("student", "compositional")


class NcaError(RuntimeError):
    pass


@dataclass(frozen=True)
class NcaConfig:
    strategy: str
    iterations: int = 600
    lr: float = 4e-4
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")


@dataclass
class NcaState:
    """The fitted C and the per-iteration loss curve.

    For the student strategy c is the unknown itself and p is None; for the
    compositional strategy p is the (L, n, n) stack of gate drivers, indexed
    by layer, and c is their composition.
    """

    c: Mat
    losses: list[float]
    p: Mat | None = None


def student_objective(
    c: Mat, x: Mat, y: Mat, grad: Mat | None = None, *, loss_only: bool = False
) -> tuple[float, Mat | None]:
    """L1 loss of Y - C X and its subgradient in C, sign(C X - Y) X^T with
    sign(0) = 0, both from one residual. The subgradient is written into
    grad when one is given, and skipped (None) when loss_only.

    The residual is formed in place in the product's buffer, which rounds
    as the out-of-place form, and |R| is taken in place once its sign is.
    The sign is a fresh array: numpy's in-place sign runs about 5x slower
    than the out-of-place one.
    """
    r = c @ x
    r -= y
    d = None if loss_only else np.matmul(np.sign(r), x.T, out=grad)
    return float(np.abs(r, out=r).sum()), d


def compute_gate(p: Mat, w: Mat, b: Mat) -> tuple[Mat, Mat]:
    """Gate pre-activation and gate: G_hat = P (W + b)^T, G = relu(G_hat)."""
    g_hat = p @ (w + b.T).T
    return g_hat, np.maximum(g_hat, 0.0)


def compositional_objective(
    p: Mat,
    params: ModelParams,
    x: Mat,
    y: Mat,
    grads: Mat | None = None,
    *,
    loss_only: bool = False,
) -> tuple[Mat | None, float, Mat | None]:
    """The L1 loss of Y - C X for the composition C and either C (loss_only)
    or the (L, n, n) gradient in the gate drivers P_l = p[l], written into
    grads when one is given; the other of the two is None. A gradient call
    forms C in grads[L-1], which its backward pass overwrites, so only a
    loss_only call returns C.

    With M_l = G_l . W_l, C = M_L ... M_1 is the last of the prefix products
    M_1, M_2 M_1, .... The gradient through the product is
    dE/dM_l = A_l^T D B_l^T where D = sign(C X - Y) X^T is the student
    gradient at C (student_objective gives it with the loss), A_l is the
    product of factors downstream of layer l and B_l the product of factors
    upstream of it; an empty product is skipped rather than multiplied as I.
    Then
    dE/dP_l = (dE/dM_l . W_l . relu'(G_hat_l)) (W_l + b_l).

    Memory: a gradient call forms each prefix product M_l ... M_1 (l > 0),
    C included, in grads[l], and D in grads[0]; the backward pass writes
    grads[l] only after its last read of what that slot holds. Besides
    grads, the live set peaks at the L factors, the running downstream
    product and a few n x n temporaries, plus an (n, T) residual and L bool
    gate masks (an eighth of a matrix each). Each factor is formed in its
    gate's buffer, the backward pass drops each factor after its last use,
    and each masked factor gradient is formed in place, written to grads[l]
    by one matmul and freed before the next; every step rounds as its
    out-of-place form. run_nca passes one grads stack for the whole run, so
    an iteration allocates none.
    """
    if len(p) != len(params.layers):
        raise ValueError(f"{len(p)} gate drivers for {len(params.layers)} layers")
    if grads is None and not loss_only:
        grads = np.empty((len(p), params.n, params.n))
    # where prefix product l and D are formed; a loss_only call forms its own
    slots = [None] * len(p) if loss_only else grads
    masks, factors, prefix = [], [], []
    for l, (p_l, (w, b)) in enumerate(zip(p, params.layers)):
        g_hat, g = compute_gate(p_l, w, b)
        masks.append(g_hat > 0.0)
        del g_hat
        g *= w
        factors.append(g)
        prefix.append(np.matmul(g, prefix[-1], out=slots[l]) if l else g)
    c = prefix.pop()
    loss, delta = student_objective(c, x, y, slots[0], loss_only=loss_only)
    if loss_only:
        return c, loss, None

    down = None  # M_L ... M_{l+1}, None while empty
    for l in range(len(p) - 1, -1, -1):
        d_factor = delta if down is None else down.T @ delta
        if l > 0:
            # each prefix product and factor is dropped after its last use
            d_factor = d_factor @ prefix[l - 1].T
            prefix[l - 1] = None
            down = factors[l] if down is None else down @ factors[l]
            factors[l] = None
        w, b = params.layers[l]
        d_factor *= w
        d_factor *= masks[l]
        np.matmul(d_factor, w + b.T, out=grads[l])
        del d_factor
    return None, loss, grads


def run_nca(params: ModelParams, x_mix, cfg: NcaConfig) -> NcaState:
    """Fit a couplings matrix to the model's response on x_mix.

    The unknown theta is C itself (student) or the (L, n, n) gate drivers
    (compositional), drawn in one piece and stepped in place by Adam. Each
    iteration evaluates the objective once into one gradient buffer held for
    the run, records its loss and takes an Adam step; nothing else of an
    evaluation outlives it. A final loss-only evaluation forms the returned C
    and records its loss, so the loss curve has cfg.iterations + 1 values.
    """
    rng = make_rng(cfg.seed)
    # the target Y is the last-layer ReLU output, the mask for sf
    acts = forward(params, x_mix)
    x, y = acts[0], acts[-1]
    del acts
    adam = Adam(cfg.lr)
    n = params.n
    losses: list[float] = []

    def record(e: float, i: int | str) -> None:
        if not math.isfinite(e):
            raise NcaError(f"non-finite couplings loss at iteration {i}")
        losses.append(e)

    student = cfg.strategy == "student"
    if student:
        theta = glorot_like_init(rng, n, n, n)
        objective = lambda t, g, **kw: (t, *student_objective(t, x, y, g, **kw))
    else:
        theta = glorot_like_init(rng, len(params.layers) * n, n, n).reshape(-1, n, n)
        objective = lambda t, g, **kw: compositional_objective(t, params, x, y, g, **kw)
    grad = np.empty_like(theta)
    for i in range(cfg.iterations):
        record(objective(theta, grad)[1], i)
        adam.step(theta, grad)
    del grad
    c, e, _ = objective(theta, None, loss_only=True)
    record(e, "final")
    return NcaState(c, losses, None if student else theta)


def moving_average(values, window: int) -> np.ndarray:
    """Sliding mean with the given window; length len(values) - window + 1."""
    v = np.asarray(values, dtype=np.float64)
    if window < 1 or window > v.shape[0]:
        raise ValueError(f"window {window} invalid for {v.shape[0]} values")
    csum = np.concatenate(([0.0], np.cumsum(v)))
    return (csum[window:] - csum[:-window]) / window


def save_couplings(path, c: Mat, metadata: dict) -> None:
    """Square matrix plus a canonical-JSON metadata block."""
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"couplings matrix must be square, got {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("refusing to save non-finite couplings matrix")
    meta = serial.canonical_json(metadata).encode("utf-8")
    with serial.atomic_writer(path) as f:
        f.write(COUPLINGS_MAGIC)
        serial.write_u32(f, COUPLINGS_VERSION)
        serial.write_u32(f, c.shape[0])
        serial.write_f64s(f, c)
        serial.write_u32(f, len(meta))
        f.write(meta)


def load_couplings(path, *, matrix: bool = True) -> tuple[Mat | None, dict]:
    """The matrix and the checked metadata. With matrix=False the matrix is
    skipped, once its size is checked against the file, and None returned."""
    with open(path, "rb") as f:
        serial.expect_magic(f, COUPLINGS_MAGIC)
        serial.read_version(f, COUPLINGS_VERSION)
        n = serial.read_u32(f)
        if matrix:
            c = serial.read_f64s(f, n * n).reshape(n, n)
        else:
            c = None
            serial.skip_sized(f, n * n * 8)
        meta_len = serial.read_u32(f)
        try:
            metadata = json.loads(serial.read_sized(f, meta_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise serial.FormatError(f"bad couplings metadata: {e}") from None
    if not isinstance(metadata, dict):
        raise serial.FormatError(f"couplings metadata is not a JSON object: {metadata!r:.40}")
    for key in ("checkpoint", "segment", "strategy"):
        if not isinstance(metadata.get(key, ""), str):
            raise serial.FormatError(
                f"couplings metadata {key!r} is not a string: {metadata[key]!r:.40}"
            )
    # analyze scores a file as its strategy, so a baseline's name must not pass
    if metadata.get("strategy", STRATEGIES[0]) not in STRATEGIES:
        raise serial.FormatError(
            f"couplings strategy {metadata['strategy']!r:.40} is not one of {STRATEGIES}"
        )
    return c, metadata
