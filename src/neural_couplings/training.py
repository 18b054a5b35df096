"""Bias-corrected Adam and the mini-batch training loop.

Adam steps one parameter array in place, in the folded form of Kingma & Ba
(2015, sec. 2): the same update as the textbook recipe in exact arithmetic,
in fewer elementwise passes. Training runs every seed it is given in
lockstep, as one stack of K models: the weights are a (K, P) array with one
flat row per seed, and the gradient another. Each seed shuffles all frames
globally each epoch, halves its learning rate after a run of non-improving
epochs, stops after a longer run and then leaves the stack; its result is
the weights snapshotted at its best epoch loss, with the rule that ended its
run. A stacked batch costs one set of numpy calls where K single-model
batches cost K, and every model of the stack gets the bits it gets alone
(see `models`).

Precision: Adam follows its parameter's dtype, and training runs in float32.
The rows and the initial weights (drawn in float64) are rounded to float32
once per run; the weights, gradient, best-epoch snapshot and Adam's state
are float32, and a result's `params` are float64 again, float32-exact.
Float32 halves the bytes every product moves and doubles its SIMD width; the
README's Precision section gives how far it moves the losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import Mat, make_rng, single
from .models import FAMILIES, ModelParams, backward, forward_unchecked, init_params

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


@dataclass
class EpochStats:
    """One epoch of a run; its index in the run's history is its epoch."""

    mean_loss: float
    lr: float


@dataclass
class TrainResult:
    """One seed's run. weights holds its best epoch's float32 weights: views
    of its row of a snapshot that every result of one train_stack call
    shares."""

    weights: ModelParams
    history: list[EpochStats]
    best_loss: float
    # "patience" when STOP_PATIENCE non-improving epochs ended the run,
    # "max_epochs" when the epoch budget ran out first
    stopped_by: str

    @property
    def epochs(self) -> int:
        return len(self.history)

    @property
    def params(self) -> ModelParams:
        """The weights in float64, float32-exact: a new copy at each access."""
        return ModelParams(self.weights.tag, [(w.astype(np.float64), b.astype(np.float64))
                                              for w, b in self.weights.layers])


class _Run:
    """A seed's state in the stack: its snapshot row, its own Adam and
    learning rate, and its schedule. A plain class, since making it a
    dataclass added 0.5 ms to every import of the package (2-core Xeon)."""

    def __init__(self, row: int, seed: int):
        self.row, self.seed, self.adam = row, seed, Adam(INITIAL_LR)
        self.history: list[EpochStats] = []
        self.best_loss = math.inf
        self.bad_epochs = 0
        self.stopped_by: str | None = None


def _flat(layers: list[tuple[Mat, Mat]]) -> Mat:
    """Every W and b raveled into one vector, in the order W0, b0, W1, b1, ...."""
    return np.concatenate([a.ravel() for layer in layers for a in layer])


def _params_view(tag: str, theta: Mat, n: int) -> ModelParams:
    """ModelParams whose W and b are views of theta: one flat vector, or a
    (K, P) stack of them for a stack of K models."""
    stack = theta.shape[:-1]
    rows = theta.reshape(*stack, -1, n * n + n)
    return ModelParams(tag, [(rows[..., i, : n * n].reshape(*stack, n, n),
                              rows[..., i, n * n :].reshape(*stack, n, 1))
                             for i in range(rows.shape[-2])])


def train_stack(tag: str, rows: tuple[Mat, Mat], seeds: list[int],
                max_epochs: int) -> list[TrainResult]:
    """Train one model of the family tag (its layers as `init_params` builds
    them) per seed, for at most max_epochs epochs each, all on rows =
    (mixture rows, target rows), the normalized frames one per row as
    `spectral.normalized_pair_rows` builds them; each result is deterministic
    given (tag, rows, its seed, max_epochs), and is the one a call with that
    seed alone returns.

    The K models run in lockstep as one stack: weights, gradient and
    best-epoch snapshot are (K, P) float32 arrays, and the layers' W and b
    and the per-layer gradients are (K, n, n) and (K, n, 1) views of them.
    Each batch gathers every seed's own shuffled rows into a (K, B, n)
    array and hands its (K, n, B) transposed view to `forward_unchecked`
    and `backward`, once for the whole stack. Each seed keeps its own
    permutation, its own Adam on its row of the stack, its own learning
    rate, patience counter and snapshot row; a seed that stops leaves the
    stack, whose remaining rows move up. So the stack holds 5 K P float32
    elements of state (weights, gradient, snapshot, Adam's two moments).

    Training runs in float32 (see the module docstring): float64 rows are
    rounded once per call and float32 rows are used as they are. Every row
    is checked once on entry, by the float32 range guard, so no batch is
    checked again; the rows are only read. The results hold the float32
    snapshot; each makes its float64 weights when asked (`params`).

    Errors name the seed they concern as TrainingError("seed k: ..."): the
    first seed's for rows that hold no frame or a value outside the float32
    range; the seed's own for its initial weights, a non-finite loss, or a
    TrainingError or FloatingPointError of its Adam step. When the stack's
    batch raises a FloatingPointError (under np.errstate(over="raise"), say),
    each model runs the batch alone to find the seed to name.
    """
    if not seeds:
        raise ValueError("no seeds to train")
    if max_epochs < 1:
        raise ValueError("max_epochs must be positive")
    first = seeds[0]
    try:
        mix_rows, tgt_rows = (
            single(r, f"a {what} row", TrainingError, "training")
            for r, what in zip(rows, ("mixture", "target"))
        )
    except TrainingError as e:
        raise TrainingError(f"seed {first}: {e}") from None
    if mix_rows.shape != tgt_rows.shape:
        raise ValueError(f"mixture rows {mix_rows.shape} and target rows {tgt_rows.shape} differ")
    total_frames, n = mix_rows.shape
    if total_frames == 0:
        raise TrainingError(f"seed {first}: no frames to train on")
    theta = np.empty((len(seeds), FAMILIES[tag] * (n * n + n)), dtype=np.float32)
    for row, seed in zip(theta, seeds):
        try:
            row[:] = single(_flat(init_params(tag, n, make_rng(seed)).layers),
                            "the initial weight vector", TrainingError, "training")
        except TrainingError as e:
            raise TrainingError(f"seed {seed}: {e}") from None
    grad = np.empty_like(theta)
    best = theta.copy()
    runs = [_Run(k, seed) for k, seed in enumerate(seeds)]
    live = runs
    params, grads = _params_view(tag, theta, n), _params_view(tag, grad, n).layers

    for epoch in range(max_epochs):
        orders = np.stack([np.random.default_rng([run.seed, epoch]).permutation(total_frames)
                           for run in live])
        total_se = [0.0] * len(live)
        for batch_idx, lo in enumerate(range(0, total_frames, BATCH_SIZE)):
            cols = orders[:, lo : lo + BATCH_SIZE]
            # the rows mix_rows[cols] gathers, in 1.5 against 2.6 us at 16 bins
            xb = np.take(mix_rows, cols, axis=0).swapaxes(1, 2)
            yb = np.take(tgt_rows, cols, axis=0).swapaxes(1, 2)
            try:
                losses = backward(params, forward_unchecked(params, xb), yb, grads)
            except FloatingPointError as e:
                seed = _failing_seed(tag, live, theta, grad, xb, yb)
                raise TrainingError(f"seed {seed}: {e}") from None
            size = cols.shape[1] * n
            for i, loss in enumerate(losses):
                if not math.isfinite(loss):
                    raise TrainingError(f"seed {live[i].seed}: training diverged: "
                                        f"non-finite loss at epoch {epoch}, batch {batch_idx}")
                total_se[i] += loss * size
            try:
                for run, p, g in zip(live, theta, grad):
                    run.adam.step(p, g)
            except (TrainingError, FloatingPointError) as e:
                raise TrainingError(f"seed {run.seed}: {e}") from None

        for i, run in enumerate(live):
            epoch_loss = total_se[i] / tgt_rows.size
            run.history.append(EpochStats(epoch_loss, run.adam.lr))
            if epoch_loss < run.best_loss * (1.0 - IMPROVEMENT_REL):
                run.best_loss = epoch_loss
                best[run.row] = theta[i]
                run.bad_epochs = 0
            else:
                run.bad_epochs += 1
                if run.bad_epochs >= STOP_PATIENCE:
                    run.stopped_by = "patience"
                elif run.bad_epochs % HALVE_PATIENCE == 0:
                    run.adam.lr *= 0.5
            if run.stopped_by is None and epoch + 1 == max_epochs:
                run.stopped_by = "max_epochs"
        keep = [i for i, run in enumerate(live) if run.stopped_by is None]
        if not keep:
            break
        if len(keep) < len(live):
            theta[: len(keep)] = theta[keep]
            live = [live[i] for i in keep]
            params = _params_view(tag, theta[: len(live)], n)
            grads = _params_view(tag, grad[: len(live)], n).layers

    return [TrainResult(_params_view(tag, best[run.row], n), run.history, run.best_loss,
                        run.stopped_by) for run in runs]


def _failing_seed(tag: str, live: list[_Run], theta: Mat, grad: Mat, xb: Mat, yb: Mat) -> int:
    """The seed of the first model in the stack that raises a
    FloatingPointError when it runs the batch alone; the first seed of the
    stack if none does."""
    n = xb.shape[1]
    for i, run in enumerate(live):
        one, one_grads = _params_view(tag, theta[i], n), _params_view(tag, grad[i], n).layers
        try:
            backward(one, forward_unchecked(one, xb[i]), yb[i], one_grads)
        except FloatingPointError:
            return run.seed
    return live[0].seed
