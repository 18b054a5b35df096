"""Couplings extraction: approximate a trained model by one square matrix C.

Given normalized mixture frames X and the model's last-layer output Y (the
spectral estimate, or the mask for skip-filtering models), minimize
l1(Y - C X) over C with Adam. Two strategies:

student        C is a free matrix; the subgradient is sign(C X - Y) X^T.
compositional  C is rebuilt every iteration as the product over layers of
               (G_l . W_l), encoder factor applied first, where each gate
               G_l = relu(P_l S_l^T) is driven by a free matrix P_l and the
               shifted weights S_l = W_l + b_l^T add b_l[j] to every element
               of column j. Only the P_l are optimized; W_l and b_l stay
               frozen.

Each strategy has one objective function of plain arrays returning the loss
and the gradients from one pass, evaluated once per Adam iteration: the
residual R = C X - Y and its sign are formed once and shared by the loss
sign(R) . R = |R| and the gradient. An extraction is three steps, each a
function of plain arrays, and an iteration forms only what changes from one
iteration to the next:

model_response        X and Y from one forward pass of the model, its first
                      and last activations; nothing else of it is kept.
compositional_layers  each layer's W_l and S_l, once per checkpoint.
fit_couplings         the iterations on those arrays alone; X^T is formed
                      in C order once per run, and compositional_objective
                      carries the gradient back through the factors without
                      forming their downstream products.

run_nca chains the three for one model and one window. Correctness is
pinned by finite-difference tests rather than by trusting any printed
derivation.

Precision: the objectives and Adam follow their inputs' dtype, and every
iteration runs in float32. The forward pass stays float64; X, Y, the drawn
theta and, for compositional runs, the layer weights and biases are rounded
to float32 once (S_l is their float32 sum), and the returned C is float64
again. Float32 halves the memory traffic of the n x n products and doubles
their SIMD width; the README's Precision section gives how far it moves the
losses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import serial
from .linalg import Mat, glorot_like_init, make_rng, single
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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class NcaState:
    """The fitted C and the per-iteration loss curve."""

    c: Mat
    losses: list[float]


def student_objective(
    c: Mat, x: Mat, xt: Mat, y: Mat, grad: Mat | None = None, *, loss_only: bool = False
) -> tuple[float, Mat | None]:
    """L1 loss of Y - C X and its subgradient in C, sign(C X - Y) X^T with
    sign(0) = 0, both from one residual R = C X - Y. xt is X^T in C order,
    formed once by the caller: a product reading X through a transposed view
    ran slower (with the same bits in float32). The subgradient is written
    into grad when one is given, and skipped (None) when loss_only.

    The residual is formed in place in the product's buffer, which rounds
    as the out-of-place form. The sign is a fresh array, since numpy's
    in-place sign runs about 5x slower, and the loss is its BLAS dot with R,
    the sum of |R| in another order.
    """
    r = c @ x
    r -= y
    s = np.sign(r)
    d = None if loss_only else np.matmul(s, xt, out=grad)
    return float(np.dot(s.ravel(), r.ravel())), d


def shifted_layers(layers) -> list[tuple[Mat, Mat]]:
    """Each layer (W_l, b_l) as the pair (W_l, S_l) compositional_objective
    takes, where the shifted weights S_l = W_l + b_l^T add b_l[j] to every
    element of column j; S_l is C-order and has W_l's dtype."""
    return [(w, w + b.T) for w, b in layers]


def compositional_objective(
    p: Mat,
    layers: list[tuple[Mat, Mat]],
    x: Mat,
    xt: Mat,
    y: Mat,
    grads: Mat | None = None,
    *,
    loss_only: bool = False,
) -> tuple[Mat | None, float, Mat | None]:
    """The L1 loss of Y - C X for the composition C and either C (loss_only)
    or the (L, n, n) gradient in the gate drivers P_l = p[l], written into
    grads when one is given; the other of the two is None. layers holds
    each layer's (W_l, S_l) from shifted_layers and xt is X^T in C order,
    both formed once per run. A gradient call forms C in grads[L-1], which
    its backward pass overwrites, so only a loss_only call returns C.

    With M_l = G_l . W_l and G_l = relu(G_hat_l), G_hat_l = P_l S_l^T,
    C = M_L ... M_1 is the last of the prefix products B_{l+1} = M_l ... M_1.
    The backward pass carries U_l = A_l^T D back one factor at a time, where
    D = sign(C X - Y) X^T is the student gradient at C (student_objective
    gives it with the loss) and A_l = M_L ... M_{l+1} the product of the
    factors downstream of layer l:
    U_L = D, U_{l-1} = M_l^T U_l, dE/dM_l = U_l B_l^T (dE/dM_1 = U_1) and
    dE/dP_l = (dE/dM_l . W_l . relu'(G_hat_l)) S_l.
    No downstream product A_l is formed: an iteration takes L gate, L - 1
    prefix, 2 (L - 1) backward and L dE/dP_l products of size n^3, 5L - 3
    in all (forming the A_l took 6L - 5), besides the two n x n x T
    products of the residual and D.

    Memory, in the slots of grads (layer l's gradient goes to slot l - 1):
    a gradient call forms each prefix product B_{l+1} for l > 1, C
    included, in slot l - 1, and D in slot 0. Going back from layer l, U_{l-1}
    is written into slot l - 2, where the B_l that dE/dM_l has just read was
    held (U_1, whose slot may still hold D, gets an array of its own), and
    then dE/dP_l into slot l - 1, which held U_l. Besides grads, the live
    set peaks at the L factors and one dE/dM_l, plus an (n, T) residual and
    sign and L bool gate masks (an eighth of a matrix each). Each gate is
    formed in its pre-activation's buffer once the mask is taken, and each
    factor in its gate's buffer; the backward pass drops each factor and
    prefix product after its last use, and forms each masked factor
    gradient in place; every step rounds as its out-of-place form.
    fit_couplings passes one grads stack for the whole run, so an iteration
    allocates none of it.
    """
    if len(p) != len(layers):
        raise ValueError(f"{len(p)} gate matrices P_l for {len(layers)} layers")
    if grads is None and not loss_only:
        grads = np.empty((len(p), *p[0].shape), dtype=p[0].dtype)
    # where prefix product l and D are formed; a loss_only call forms its own
    slots = [None] * len(p) if loss_only else grads
    masks, factors, prefix = [], [], []
    for l, (p_l, (w, s)) in enumerate(zip(p, layers)):
        # the gate G_l = relu(G_hat_l) in its pre-activation's buffer
        g = p_l @ s.T
        masks.append(g > 0.0)
        np.maximum(g, 0.0, out=g)
        g *= w
        factors.append(g)
        prefix.append(np.matmul(g, prefix[-1], out=slots[l]) if l else g)
    c = prefix.pop()
    loss, u = student_objective(c, x, xt, y, slots[0], loss_only=loss_only)
    if loss_only:
        return c, loss, None

    for l in range(len(p) - 1, -1, -1):
        w, s = layers[l]
        if l > 0:
            d_factor = u @ prefix[l - 1].T
            prefix[l - 1] = None
            u = np.matmul(factors[l].T, u, out=grads[l - 1] if l > 1 else None)
            factors[l] = None
        else:
            d_factor = u
        d_factor *= w
        d_factor *= masks[l]
        np.matmul(d_factor, s, out=grads[l])
        del d_factor
    return None, loss, grads


def _single(a: Mat, what: str) -> Mat:
    return single(a, what, NcaError, "couplings extraction")


def model_response(params: ModelParams, x_mix) -> tuple[Mat, Mat]:
    """The model's response on one window: X and Y, its first and last
    activations (Y is the last-layer ReLU output, the mask for sf), from one
    float64 forward pass and rounded to float32 once. Nothing else of the
    pass outlives the call, so a caller that holds the responses of every
    window can drop the model and the float64 windows before the first
    iteration. A value outside the float32 range is refused with NcaError.
    """
    acts = forward(params, x_mix)
    return _single(acts[0], "the window"), _single(acts[-1], "the model output")


def compositional_layers(params: ModelParams) -> list[tuple[Mat, Mat]]:
    """A checkpoint's float32 layer arrays for compositional extraction:
    each layer's (W_l, S_l) from shifted_layers, with W_l and b_l rounded to
    float32 once, so S_l is their float32 sum. They serve every window of
    the checkpoint. A weight or bias outside the float32 range is refused
    with NcaError."""
    return shifted_layers(
        (_single(w, f"layer {l} W"), _single(b, f"layer {l} b"))
        for l, (w, b) in enumerate(params.layers)
    )


def fit_couplings(
    x: Mat, y: Mat, cfg: NcaConfig, layers: list[tuple[Mat, Mat]] | None = None
) -> NcaState:
    """The extraction's iterations on plain float32 arrays: x and y as
    model_response gives them and, for compositional runs, the layers as
    compositional_layers gives them (a student run takes none).

    The unknown theta is C itself (student) or the (L, n, n) gate drivers
    (compositional), drawn in one piece and stepped in place by Adam. X^T is
    formed once, in C order, and held for the run. Each iteration evaluates
    the objective once into one gradient buffer held for the run, records
    its loss and takes an Adam step; nothing else of an evaluation outlives
    it. A final loss-only evaluation forms the returned C and records its
    loss, so the loss curve has cfg.iterations + 1 values. A non-finite loss
    is refused with NcaError.
    """
    if cfg.strategy == "compositional" and layers is None:
        raise ValueError("a compositional extraction needs the layer arrays")
    rng = make_rng(cfg.seed)
    xt = x.T.copy()
    adam = Adam(cfg.lr)
    n = x.shape[0]
    losses: list[float] = []

    def record(e: float, i: int | str) -> None:
        if not math.isfinite(e):
            raise NcaError(f"non-finite couplings loss at iteration {i}")
        losses.append(e)

    if cfg.strategy == "student":
        theta = glorot_like_init(rng, n, n, n).astype(np.float32)
        objective = lambda t, g, **kw: (t, *student_objective(t, x, xt, y, g, **kw))
    else:
        theta = glorot_like_init(rng, len(layers) * n, n, n).astype(np.float32).reshape(-1, n, n)
        objective = lambda t, g, **kw: compositional_objective(t, layers, x, xt, y, g, **kw)
    grad = np.empty_like(theta)
    for i in range(cfg.iterations):
        record(objective(theta, grad)[1], i)
        adam.step(theta, grad)
    del grad, adam
    c, e, _ = objective(theta, None, loss_only=True)
    record(e, "final")
    return NcaState(c.astype(np.float64), losses)


def run_nca(params: ModelParams, x_mix, cfg: NcaConfig) -> NcaState:
    """Fit a couplings matrix to the model's response on x_mix: the
    composition of model_response, compositional_layers (compositional runs
    only) and fit_couplings, for a caller with one model and one window.
    The iterations run in float32 (see the module docstring); a value
    outside the float32 range is refused with NcaError.
    """
    x, y = model_response(params, x_mix)
    layers = compositional_layers(params) if cfg.strategy == "compositional" else None
    return fit_couplings(x, y, cfg, layers)


def save_couplings(path, c: Mat, metadata: dict) -> None:
    """Square matrix plus a canonical-JSON metadata block."""
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"couplings matrix must be square, got {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("refusing to save non-finite couplings matrix")
    meta = serial.canonical_json(metadata).encode("utf-8")
    with serial.atomic_writer(path) as f:
        serial.write_header(f, COUPLINGS_MAGIC, COUPLINGS_VERSION)
        serial.pack(f, "I", c.shape[0])
        serial.write_f64s(f, c)
        serial.pack(f, "I", len(meta))
        f.write(meta)


def load_couplings(path, *, matrix: bool = True) -> tuple[Mat | None, dict]:
    """The matrix and the checked metadata. With matrix=False the matrix is
    skipped, once its size is checked against the file, and None returned."""
    with open(path, "rb") as f:
        serial.read_header(f, COUPLINGS_MAGIC, COUPLINGS_VERSION)
        (n,) = serial.unpack(f, "I")
        if matrix:
            c = serial.read_f64s(f, n * n).reshape(n, n)
        else:
            c = None
            serial.skip_sized(f, n * n * 8)
        (meta_len,) = serial.unpack(f, "I")
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
