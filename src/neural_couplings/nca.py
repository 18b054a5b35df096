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

The compositional gradients follow the chain rule through the factor
product: the residual gradient is bracketed by the transposed downstream
product on the left and the transposed upstream product on the right, gated
element-wise by W_l and the ReLU derivative of the gate pre-activation, then
right-multiplied by (W_l + b_l). Correctness is pinned by finite-difference
tests rather than by trusting any printed derivation.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import serial
from .linalg import Mat, glorot_like_init, make_rng
from .models import ForwardTrace, ModelParams, forward
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
        if self.lr <= 0:
            raise ValueError("lr must be positive")


@dataclass
class TargetBatch:
    """Input frames and the model output the couplings matrix must reproduce."""

    x_mix: Mat
    y: Mat

    def __post_init__(self):
        if self.x_mix.shape != self.y.shape:
            raise ValueError(f"x_mix {self.x_mix.shape} and y {self.y.shape} differ")


@dataclass
class NcaState:
    """Current unknowns plus the derived C and the per-iteration loss curve.

    For the student strategy c is the unknown itself and p is None; for the
    compositional strategy p holds the gate drivers and c is always the
    composition recomputed from them.
    """

    strategy: str
    c: Mat
    adam: Adam
    losses: list[float]
    p: list[Mat] | None = None


def make_target(params: ModelParams, x_mix) -> TargetBatch:
    """Probe the model: Y is the last-layer ReLU output (the mask for sf)."""
    trace: ForwardTrace = forward(params, x_mix)
    return TargetBatch(trace.x_input, trace.decoder_output)


def l1_loss(c: Mat, batch: TargetBatch) -> float:
    """Sum of absolute entries of Y - C X."""
    return float(np.abs(batch.y - c @ batch.x_mix).sum())


def student_grad(c: Mat, batch: TargetBatch) -> Mat:
    """Subgradient of the L1 objective in C: sign(C X - Y) X^T, sign(0) = 0."""
    return np.sign(c @ batch.x_mix - batch.y) @ batch.x_mix.T


def compute_gate(p: Mat, w: Mat, b: Mat) -> tuple[Mat, Mat]:
    """Gate pre-activation and gate: G_hat = P (W + b)^T, G = relu(G_hat)."""
    g_hat = p @ (w + b.T).T
    return g_hat, np.maximum(g_hat, 0.0)


def layer_gates(p_list: list[Mat], params: ModelParams) -> tuple[list[Mat], list[Mat]]:
    """compute_gate over all layers; returns (pre-activations, gates)."""
    if len(p_list) != len(params.layers):
        raise ValueError(f"{len(p_list)} gate drivers for {len(params.layers)} layers")
    g_hats, gates = [], []
    for p, (w, b) in zip(p_list, params.layers):
        g_hat, g = compute_gate(p, w, b)
        g_hats.append(g_hat)
        gates.append(g)
    return g_hats, gates


def compose(params: ModelParams, gates: list[Mat]) -> Mat:
    """Product over layers of (G_l . W_l), encoder factor applied first."""
    if len(gates) != len(params.layers):
        raise ValueError(f"{len(gates)} gates for {len(params.layers)} layers")
    c = np.eye(params.n)
    for (w, _), g in zip(params.layers, gates):
        c = (g * w) @ c
    return c


def compositional_grads(state: NcaState, params: ModelParams, batch: TargetBatch) -> list[Mat]:
    """L1 gradients with respect to every gate driver P_l.

    With M_l = G_l . W_l and C = M_L ... M_1, the gradient through the
    product is dE/dM_l = A_l^T D B_l^T where D = sign(C X - Y) X^T, A_l is
    the product of factors downstream of layer l and B_l the product of
    factors upstream of it. Then
    dE/dP_l = (dE/dM_l . W_l . relu'(G_hat_l)) (W_l + b_l).
    """
    if state.strategy != "compositional" or state.p is None:
        raise NcaError(f"compositional_grads on a {state.strategy!r} state")
    L = len(params.layers)
    w_hats = [w + b.T for w, b in params.layers]
    g_hats, gates = layer_gates(state.p, params)
    factors = [g * w for g, (w, _) in zip(gates, params.layers)]

    eye = np.eye(params.n)
    upstream = [eye]  # upstream[l] = M_{l-1} ... M_1
    for l in range(1, L):
        upstream.append(factors[l - 1] @ upstream[l - 1])
    downstream = [eye] * L  # downstream[l] = M_L ... M_{l+1}
    for l in range(L - 2, -1, -1):
        downstream[l] = downstream[l + 1] @ factors[l + 1]

    c = factors[L - 1] @ upstream[L - 1]
    delta = np.sign(c @ batch.x_mix - batch.y) @ batch.x_mix.T

    grads = []
    for l in range(L):
        d_factor = (downstream[l].T @ delta) @ upstream[l].T
        gated = (d_factor * params.layers[l][0]) * (g_hats[l] > 0.0)
        grads.append(gated @ w_hats[l])
    return grads


def run_nca(params: ModelParams, x_mix, cfg: NcaConfig) -> NcaState:
    """Fit a couplings matrix to the model's response on x_mix.

    The loss curve records the objective at entry to every iteration plus a
    final entry for the returned C, so it has cfg.iterations + 1 values.
    """
    x = np.asarray(x_mix, dtype=np.float64)
    rng = make_rng(cfg.seed)
    batch = make_target(params, x)
    adam = Adam(cfg.lr)
    n = params.n
    losses: list[float] = []

    def record(c: Mat, i: int | str) -> None:
        e = l1_loss(c, batch)
        if not math.isfinite(e):
            raise NcaError(f"non-finite couplings loss at iteration {i}")
        losses.append(e)

    if cfg.strategy == "student":
        c = glorot_like_init(rng, n, n, n)
        state = NcaState("student", c, adam, losses)
        for i in range(cfg.iterations):
            record(state.c, i)
            state.c = adam.step([state.c], [student_grad(state.c, batch)])[0]
    else:
        p = [glorot_like_init(rng, n, n, n) for _ in params.layers]
        _, gates = layer_gates(p, params)
        state = NcaState("compositional", compose(params, gates), adam, losses, p=p)
        for i in range(cfg.iterations):
            record(state.c, i)
            grads = compositional_grads(state, params, batch)
            state.p = adam.step(state.p, grads)
            _, gates = layer_gates(state.p, params)
            state.c = compose(params, gates)
    record(state.c, "final")
    return state


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
    buf = io.BytesIO()
    buf.write(COUPLINGS_MAGIC)
    serial.write_u32(buf, COUPLINGS_VERSION)
    serial.write_u32(buf, c.shape[0])
    buf.write(np.ascontiguousarray(c, dtype="<f8").tobytes())
    meta = serial.canonical_json(metadata).encode("utf-8")
    serial.write_u32(buf, len(meta))
    buf.write(meta)
    serial.write_file_atomic(path, buf.getvalue())


def load_couplings(path) -> tuple[Mat, dict]:
    with open(path, "rb") as f:
        serial.expect_magic(f, COUPLINGS_MAGIC)
        serial.read_version(f, COUPLINGS_VERSION)
        n = serial.read_u32(f)
        c = (
            np.frombuffer(serial.read_exact(f, n * n * 8), dtype="<f8")
            .reshape(n, n)
            .astype(np.float64)
        )
        meta_len = serial.read_u32(f)
        try:
            metadata = json.loads(serial.read_exact(f, meta_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise serial.FormatError(f"bad couplings metadata: {e}") from None
    return c, metadata
