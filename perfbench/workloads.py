"""Workload definitions: the `nca` command sequences the benchmark runs, and
the checks that decide whether each command's outputs are correct.

A workload is a fixed recipe of CLI commands. The workload seed is the only
input that varies between runs, and it reaches the program only as the
CLI's --seed/--seeds values. Each command is split into three phases:

setup  made before the first timed pass, and again after each one to sample
       the set-up time
pass   the timed unit, repeated in a closed loop
probe  run after each timed pass, outside pass_s; it supplies the throughput
       of a stage that neither the pass nor the set-up contains
"""

from __future__ import annotations

import csv
import glob
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from neural_couplings.models import load_checkpoint
from neural_couplings.nca import load_couplings
from neural_couplings.spectral import load_dataset

FRAMES_PER_PAIR = 720
WINDOW_FRAMES = 350
ALL_FAMILIES = ("dae", "mss-dae", "sf")
STRATEGIES = ("student", "compositional")
HIDDEN_LAYERS = 2  # the CLI default for mss-dae


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int  # frequency bins
    pairs: int
    families: tuple[str, ...]
    train_seeds: int  # seeds per family, counted up from the workload seed
    epochs: int
    iters: int
    setup: tuple[str, ...]  # stages made in set-up
    passes: tuple[str, ...]  # stages of one timed pass
    probe: tuple[str, ...] = ()  # stages run after each timed pass
    probe_families: tuple[str, ...] = ()  # couplings probe: dae of the first seed

    @property
    def segments(self) -> int:
        return self.pairs * (FRAMES_PER_PAIR // WINDOW_FRAMES)

    def layers(self, family: str) -> int:
        return 2 + HIDDEN_LAYERS if family == "mss-dae" else 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            why="the desk_scale.sh pipeline at reduced size: n=64, every stage, "
            "about a quarter training and the rest extraction; Python overhead per call dominates",
            n=64, pairs=2, families=ALL_FAMILIES, train_seeds=2, epochs=12, iters=60,
            setup=(),
            passes=("synth", "train", "couplings", "analyze", "heatmap"),
        ),
        Workload(
            name="train",
            why="train only: three families x 7 seeds at n=64; isolates models and "
            "training, so extraction changes must not move it",
            n=64, pairs=2, families=ALL_FAMILIES, train_seeds=7, epochs=20, iters=100,
            setup=("synth",),
            passes=("train",),
            probe=("couplings",),
            probe_families=("dae",),
        ),
        Workload(
            name="extract-wide",
            why="extraction at n=257: each matrix is 516 KiB, so the compositional "
            "working set overflows L2 and BLAS flops dominate",
            n=257, pairs=1, families=("mss-dae", "sf"), train_seeds=1, epochs=8, iters=20,
            setup=("synth", "train"),
            passes=("couplings", "analyze"),
        ),
    )
}


@dataclass(frozen=True)
class Command:
    """One `nca` invocation: the stage it belongs to and its argv."""

    stage: str  # synth | train | couplings.student | couplings.compositional | analyze | heatmap
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Dirs:
    """Where a phase finds the artifacts of earlier phases and writes its own."""

    setup: str  # what set-up made
    last_pass: str  # what the last timed pass made; read by the probe
    out: str


def train_seeds(w: Workload, seed: int) -> list[int]:
    return [seed + k for k in range(w.train_seeds)]


def commands(w: Workload, phase: str, seed: int, dirs: Dirs) -> list[Command]:
    """The command sequence of one phase, built from the workload seed alone."""
    stages = {"setup": w.setup, "pass": w.passes, "probe": w.probe}[phase]

    def made_by(stage: str) -> str:
        if stage in stages:
            return dirs.out
        if stage in w.setup:
            return dirs.setup
        return dirs.last_pass

    ds = os.path.join(made_by("synth"), "dataset.ncd")
    ck_dir = os.path.join(made_by("train"), "checkpoints")
    seeds = train_seeds(w, seed)
    out: list[Command] = []
    if "synth" in stages:
        out.append(Command("synth", (
            "synth", "--out", ds, "--n", str(w.n), "--frames", str(FRAMES_PER_PAIR),
            "--pairs", str(w.pairs), "--seed", str(seed),
        )))
    if "train" in stages:
        for fam in w.families:
            out.append(Command("train", (
                "train", "--dataset", ds, "--model", fam, "--out", ck_dir,
                "--seeds", ",".join(str(s) for s in seeds), "--max-epochs", str(w.epochs),
            )))
    couplings_dir = os.path.join(dirs.out, "couplings")
    if "couplings" in stages:
        families = w.probe_families if phase == "probe" else w.families
        probe_seeds = seeds[:1] if phase == "probe" else seeds
        for fam in families:
            for s in probe_seeds:
                for strategy in STRATEGIES:
                    out.append(Command(f"couplings.{strategy}", (
                        "couplings", "--checkpoint", os.path.join(ck_dir, f"{fam}-seed{s}.ncm"),
                        "--dataset", ds, "--strategy", strategy, "--segment", "all",
                        "--iters", str(w.iters), "--lr", "1e-3",
                        "--frames", str(WINDOW_FRAMES), "--seed", str(seed),
                        "--out", couplings_dir,
                    )))
    if "analyze" in stages:
        out.append(Command("analyze", (
            "analyze", "--couplings", os.path.join(couplings_dir, "*.ncc"),
            "--checkpoints", ck_dir, "--dataset", ds,
            "--out", os.path.join(dirs.out, "report.json"),
        )))
    if "heatmap" in stages:
        first = f"{w.families[0]}-seed{seeds[0]}-student-0-0.ncc"
        out.append(Command("heatmap", (
            "heatmap", "--couplings", os.path.join(couplings_dir, first),
            "--out", os.path.join(dirs.out, "sample.png"), "--row-normalize",
        )))
    return out


class CheckFailed(Exception):
    """An output of a command is missing, does not load, or is not finite."""


@dataclass
class Outputs:
    """What a command produced: file digests for the byte-identity check, and
    the counts and losses the end-to-end metrics are computed from."""

    digests: dict[str, str] = field(default_factory=dict)
    frame_epochs: int = 0
    problem_iters: int = 0
    best_mse: list[float] = field(default_factory=list)
    final_l1: list[float] = field(default_factory=list)


def _digest(out: Outputs, path: str, base: str) -> None:
    if not os.path.isfile(path):
        raise CheckFailed(f"missing output {path}")
    with open(path, "rb") as f:
        out.digests[os.path.relpath(path, base)] = hashlib.sha256(f.read()).hexdigest()


def _finite(values, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise CheckFailed(f"non-finite values in {what}")


def _csv_column(path: str, column: str) -> list[float]:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        raise CheckFailed(f"{path} has no rows")
    values = [float(r[column]) for r in rows]
    _finite(values, path)
    return values


def _option(argv: tuple[str, ...], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def check_outputs(w: Workload, cmd: Command, base: str) -> Outputs:
    """Load every output of a finished command; raise CheckFailed if one is
    missing, unreadable or non-finite. Manifests are not data artifacts and
    are neither loaded nor digested."""
    out = Outputs()
    argv = cmd.argv
    try:
        if cmd.stage == "synth":
            path = _option(argv, "--out")
            ds = load_dataset(path)
            for mix, tgt in ds.pairs:
                _finite(mix.mags, path)
                _finite(tgt.mags, path)
            _digest(out, path, base)
        elif cmd.stage == "train":
            ck_dir, fam = _option(argv, "--out"), _option(argv, "--model")
            frames = w.pairs * FRAMES_PER_PAIR
            for s in _option(argv, "--seeds").split(","):
                ck_path = os.path.join(ck_dir, f"{fam}-seed{s}.ncm")
                ck = load_checkpoint(ck_path)
                for wmat, bvec in ck.params.layers:
                    _finite(wmat, ck_path)
                    _finite(bvec, ck_path)
                hist_path = os.path.join(ck_dir, f"{fam}-seed{s}-history.csv")
                losses = _csv_column(hist_path, "mean_loss")
                if len(losses) != ck.epochs:
                    raise CheckFailed(f"{hist_path}: {len(losses)} rows for {ck.epochs} epochs")
                out.frame_epochs += frames * len(losses)
                out.best_mse.append(min(losses))
                _digest(out, ck_path, base)
                _digest(out, hist_path, base)
        elif cmd.stage.startswith("couplings."):
            stem = os.path.basename(_option(argv, "--checkpoint"))[: -len(".ncm")]
            strategy = _option(argv, "--strategy")
            iters = int(_option(argv, "--iters"))
            pattern = os.path.join(_option(argv, "--out"), f"{stem}-{strategy}-*.ncc")
            paths = sorted(glob.glob(pattern))
            if len(paths) != w.segments:
                raise CheckFailed(f"{len(paths)} files match {pattern}, want {w.segments}")
            for c_path in paths:
                c, meta = load_couplings(c_path)
                _finite(c, c_path)
                loss_path = c_path[: -len(".ncc")] + "-loss.csv"
                losses = _csv_column(loss_path, "l1_loss")
                if len(losses) != iters + 1 or losses[-1] != meta.get("final_loss"):
                    raise CheckFailed(f"{loss_path} does not match {c_path}")
                out.problem_iters += iters
                out.final_l1.append(losses[-1])
                _digest(out, c_path, base)
                _digest(out, loss_path, base)
        elif cmd.stage == "analyze":
            report_path = _option(argv, "--out")
            with open(report_path) as f:
                report = json.load(f)
            if report.get("record_count", 0) < 1:
                raise CheckFailed(f"{report_path} holds no records")
            csv_path = report_path[: -len(".json")] + ".csv"
            _csv_column(csv_path, "snr_model_db")
            _csv_column(csv_path, "snr_truth_db")
            _digest(out, report_path, base)
            _digest(out, csv_path, base)
        elif cmd.stage == "heatmap":
            path = _option(argv, "--out")
            with open(path, "rb") as f:
                if f.read(8) != b"\x89PNG\r\n\x1a\n":
                    raise CheckFailed(f"{path} is not a PNG")
            _digest(out, path, base)
        else:
            raise CheckFailed(f"unknown stage {cmd.stage}")
    except CheckFailed:
        raise
    except Exception as e:  # any load error is a failed output
        raise CheckFailed(f"{type(e).__name__}: {e}") from None
    return out


def working_set_bytes(w: Workload) -> dict[str, int]:
    """Estimated hot set of the innermost loop of each stage in the workload.

    Extraction: one compositional iteration touches, per layer, W, W + b, the
    gate driver P, the gate pre-activation, the gate, the factor, the
    upstream and downstream products, the factor gradient and Adam's two
    moments (11 n x n matrices), plus C, the residual gradient and the n x T
    frames X, Y and C X. Training: per layer W, its gradient and Adam's two
    moments, plus the pre- and post-activations of a 128-frame batch.
    """
    n = w.n
    layers = max(w.layers(f) for f in w.families)
    extract = 8 * ((11 * layers + 2) * n * n + 3 * n * WINDOW_FRAMES)
    train = 8 * (4 * layers * n * n + (2 * layers + 2) * n * 128)
    stages = set(w.setup + w.passes + w.probe)
    out = {}
    if "couplings" in stages:
        out["extract"] = extract
    if "train" in stages:
        out["train"] = train
    return out
