"""Bias-corrected Adam and the mini-batch training loop.

Training shuffles all frame columns globally each epoch, drops the learning
rate by half after a run of non-improving epochs, stops after a longer run,
and returns the parameters snapshotted at the best epoch loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import serial
from .linalg import Mat, make_rng
from .models import Arch, ModelParams, backward, forward, init_params, mse
from .spectral import Dataset, normalized_pair_matrices

# An epoch improves only if its loss beats the best by more than this,
# relatively; equal-to-the-eye plateaus do not reset the patience counters.
IMPROVEMENT_REL = 1e-9


class TrainingError(RuntimeError):
    pass


class Adam(object):
    """Adam over a list of parameter arrays; moment buffers live here.

    step() returns fresh parameter arrays and never mutates its inputs; the
    learning rate is a plain attribute so schedules can rewrite it.
    """

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: list[Mat] | None = None
        self.v: list[Mat] | None = None

    def step(self, params: list[Mat], grads: list[Mat]) -> list[Mat]:
        if len(params) != len(grads):
            raise TrainingError(f"{len(params)} params but {len(grads)} grads")
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        if len(params) != len(self.m):
            raise TrainingError(f"expected {len(self.m)} params, got {len(params)}")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            g = np.asarray(g, dtype=np.float64)
            if g.shape != p.shape:
                raise TrainingError(f"grad {i} has shape {g.shape}, param has {p.shape}")
            if not np.isfinite(g).all():
                raise TrainingError(f"non-finite gradient in parameter {i}")
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            out.append(p - self.lr * m_hat / (np.sqrt(v_hat) + self.eps))
        return out


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    initial_lr: float = 1e-3
    halve_patience: int = 2
    stop_patience: int = 4
    max_epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be positive")
        if self.halve_patience < 1 or self.stop_patience < self.halve_patience:
            raise ValueError("need stop_patience >= halve_patience >= 1")


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    lr: float


@dataclass
class TrainResult:
    params: ModelParams
    history: list[EpochStats]
    seed: int
    best_loss: float

    @property
    def epochs(self) -> int:
        return len(self.history)


def _snapshot(params: ModelParams) -> ModelParams:
    return ModelParams(params.arch, [(w.copy(), b.copy()) for w, b in params.layers], params.n)


def train(arch: Arch, dataset: Dataset, cfg: TrainConfig) -> TrainResult:
    """Train one model; deterministic given (arch, dataset, cfg)."""
    x_mix, x_tgt = normalized_pair_matrices(dataset)
    n, total_frames = x_mix.shape
    params = init_params(arch, n, make_rng(cfg.seed))
    adam = Adam(cfg.initial_lr)

    best_loss = math.inf
    best_params = _snapshot(params)
    history: list[EpochStats] = []
    bad_epochs = 0

    for epoch in range(cfg.max_epochs):
        order = np.random.default_rng([cfg.seed, epoch]).permutation(total_frames)
        total_se = 0.0
        for batch_idx, k in enumerate(range(0, total_frames, cfg.batch_size)):
            cols = order[k : k + cfg.batch_size]
            xb, yb = x_mix[:, cols], x_tgt[:, cols]
            trace = forward(params, xb)
            batch_loss = mse(yb, trace.output)
            if not math.isfinite(batch_loss):
                raise TrainingError(
                    f"training diverged: non-finite loss at epoch {epoch}, batch {batch_idx}"
                )
            total_se += batch_loss * yb.size
            grads = backward(params, trace, yb)
            flat_p = [a for layer in params.layers for a in layer]
            flat_g = [a for layer in grads for a in layer]
            stepped = adam.step(flat_p, flat_g)
            layers = [(stepped[2 * i], stepped[2 * i + 1]) for i in range(len(params.layers))]
            params = ModelParams(arch, layers, n)

        epoch_loss = total_se / x_tgt.size
        history.append(EpochStats(epoch, epoch_loss, adam.lr))

        if epoch_loss < best_loss * (1.0 - IMPROVEMENT_REL):
            best_loss = epoch_loss
            best_params = _snapshot(params)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.stop_patience:
                break
            if bad_epochs % cfg.halve_patience == 0:
                adam.lr *= 0.5

    return TrainResult(best_params, history, cfg.seed, best_loss)


def train_multi_seed(
    arch: Arch, dataset: Dataset, cfg: TrainConfig, seeds: list[int]
) -> list[TrainResult]:
    """One independent run per seed; sibling runs finish even if one fails."""
    results: list[TrainResult] = []
    failures: list[str] = []
    for seed in seeds:
        try:
            results.append(train(arch, dataset, replace(cfg, seed=seed)))
        except Exception as e:  # collected, re-raised after all runs finish
            failures.append(f"seed {seed}: {e}")
    if failures:
        raise TrainingError("; ".join(failures))
    return results


def write_history_csv(history: list[EpochStats], path) -> None:
    lines = ["epoch,mean_loss,lr"]
    lines += [f"{h.epoch},{h.mean_loss!r},{h.lr!r}" for h in history]
    serial.write_file_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
