"""Spans around the public functions of each package layer, recorded from
outside the package.

`Tracer.install` replaces each traced function with a wrapper, both where it
is defined and at every module attribute that holds the same object (the
`from .x import f` bindings), and `Tracer.uninstall` puts every original
back. Spans are kept in memory as (name, start, end, parent, pass id) and
only aggregated or written after the traced passes have ended.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import os
import sys
import time
from collections import defaultdict

PACKAGE = "neural_couplings"


def _run_nca_count(counters, args, kwargs, result) -> None:
    """Iterations and a nominal flop count from the problem's sizes.

    Per iteration the student strategy multiplies C X twice (loss record and
    gradient) and sign(.) X^T once: 6 n^2 T. The compositional strategy adds
    to that, per layer, the gates computed twice, the composition, the
    upstream and downstream products and three products per layer gradient:
    (16 L - 2) n^3. The model's forward probe (2 L n^2 T) and the final loss
    (2 n^2 T) are counted once. The count is fixed here, so cutting
    duplicate work in the program raises the computed GFLOP/s.
    """
    params, x_mix, cfg = args[:3]
    n, layers, frames = params.n, len(params.layers), x_mix.shape[1]
    iters = cfg.iterations
    per_iter = 6 * n * n * frames
    if cfg.strategy == "compositional":
        per_iter += (16 * layers - 2) * n**3
        counters["nca.compositional_iterations"] += iters
    counters["nca.iterations"] += iters
    counters["nca.flops"] += iters * per_iter + 2 * (layers + 1) * n * n * frames


def _train_count(counters, args, kwargs, result) -> None:
    epochs = len(result.history)
    best = next(i for i, h in enumerate(result.history) if h.mean_loss == result.best_loss)
    counters["training.epochs"] += epochs
    counters["training.wasted_epochs"] += epochs - (best + 1)


def _write_bytes(counters, args, kwargs, result) -> None:
    counters["serial.write_file_atomic.bytes"] += len(args[1])


def _hash_bytes(counters, args, kwargs, result) -> None:
    counters["serial.sha256_file.bytes"] += os.path.getsize(args[0])


# (module, attribute path, span name, counter)
TARGETS = (
    ("training", "train", "training.train", _train_count),
    ("training", "Adam.step", "training.adam.step", None),
    ("models", "forward", "models.forward", None),
    ("models", "backward", "models.backward", None),
    ("models", "load_checkpoint", "models.load_checkpoint", None),
    ("nca", "run_nca", "nca.run_nca", _run_nca_count),
    ("nca", "compositional_grads", "nca.compositional_grads", None),
    ("nca", "student_grad", "nca.student_grad", None),
    ("nca", "compose", "nca.compose", None),
    ("nca", "layer_gates", "nca.layer_gates", None),
    ("nca", "l1_loss", "nca.l1_loss", None),
    ("nca", "load_couplings", "nca.load_couplings", None),
    ("linalg", "matmul", "linalg.matmul", None),
    ("linalg", "hadamard", "linalg.hadamard", None),
    ("serial", "write_file_atomic", "serial.write_file_atomic", _write_bytes),
    ("serial", "sha256_file", "serial.sha256_file", _hash_bytes),
    ("spectral", "load_dataset", "spectral.load_dataset", None),
    ("analysis", "evaluate_segment", "analysis.evaluate_segment", None),
    ("analysis", "export_heatmap", "analysis.export_heatmap", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.pass_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn, count=None):
        name_id = self._name_id(name)
        spans, stack, clock, counters = self.spans, self._stack, time.perf_counter, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.pass_id)
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists, at every binding that holds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for mod_name, attr, span_name, count in TARGETS:
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner).get(leaf)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self.wrap(span_name, original, count)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            holder, key, original = self._restore.pop()
            setattr(holder, key, original)

    def write_csv_gz(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1, newline="") as f:
            w = csv.writer(f)
            w.writerow(["id", "name", "start", "end", "parent", "pass"])
            for idx, span in enumerate(self.spans):
                if span is not None:
                    name_id, start, end, parent, pass_id = span
                    w.writerow([idx, self.names[name_id], f"{start:.9f}", f"{end:.9f}",
                                parent, pass_id])

    def aggregate(self, passes: int) -> dict[str, float]:
        """Per-pass busy time (.s), self time (.self_s) and calls (.calls) for
        every span name, plus Adam time split by the stage that called it.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans in a pass add up to the
        busy time of its root spans.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        adam = self._name_ids.get("training.adam.step")
        for idx, span in enumerate(spans):
            if span is None:
                continue
            name_id, start, end, parent, _ = span
            name = self.names[name_id]
            busy[name] += end - start
            self_s[name] += end - start - child[idx]
            calls[name] += 1
            if name_id == adam:
                caller = self._stage_of(parent)
                busy[f"training.adam.step.{caller}"] += end - start
                calls[f"training.adam.step.{caller}"] += 1
        out: dict[str, float] = {}
        for name in busy:
            out[f"{name}.s"] = busy[name] / passes
            out[f"{name}.calls"] = calls[name] / passes
            if name in self_s:  # the Adam split by caller has no self time of its own
                out[f"{name}.self_s"] = self_s[name] / passes
        for key, value in self.counters.items():
            out[key] = value / passes
        return out

    def _stage_of(self, idx: int) -> str:
        """'train' or 'nca' by the CLI stage span above idx."""
        while idx >= 0:
            name = self.names[self.spans[idx][0]]
            if name == "cli.train":
                return "train"
            if name.startswith("cli.couplings"):
                return "nca"
            idx = self.spans[idx][3]
        return "other"
