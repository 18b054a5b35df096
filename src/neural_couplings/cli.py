"""Command-line pipeline: synth/ingest a dataset, train models, extract
couplings matrices, score them, and render heatmaps.

Every command writes its outputs atomically and drops a JSON manifest next
to them recording the flag set, input and output content hashes, tool
version, and wall-clock time, so any stage can be audited or re-run.
Errors print one JSON line to stderr and exit non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import glob as globlib
import json
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, serial
from .analysis import (
    MetricsRecord,
    aggregate,
    check_heatmap_path,
    evaluate_segment,
    export_heatmap,
    linear_composition,
    write_report_csv,
)
from .models import FAMILIES, checkpoint_width, load_checkpoint, save_checkpoint
from .nca import (
    STRATEGIES,
    NcaError,
    check_settings,
    compositional_layers,
    fit_couplings,
    load_couplings,
    model_response,
    save_couplings,
)
from .spectral import (
    Dataset,
    StftConfig,
    WavError,
    fit_scale,
    load_dataset,
    load_wav_mono,
    normalized_pair_rows,
    normalized_window,
    save_dataset,
    stft_mag,
)
from .synth import make_synthetic_dataset
from .training import TrainingError, train_stack


log = logging.getLogger(__name__)


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors raise CliError, so they end as the one-line JSON error
    every other failure prints; --help still prints usage and exits 0."""

    def error(self, message):
        raise CliError(message)


def _hash_paths(paths, hashed=None) -> dict[str, str]:
    hashed = hashed or {}
    return {p: hashed.get(p) or serial.sha256_file(p) for p in sorted(str(p) for p in paths)}


def write_manifest(manifest_path: Path, args, inputs, outputs, started, hashed=None, **extra):
    """Record the parsed command line as typed, the hashed inputs and outputs
    and the wall time since started. `hashed` maps each input path (as a str)
    the command has already hashed to its sha256, so no input is read twice."""
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    manifest = {
        **extra,
        "tool": "nca",
        "version": __version__,
        "command": args.command,
        "flags": flags,
        "inputs": _hash_paths(inputs, hashed),
        "outputs": _hash_paths(outputs),
        "wall_clock_s": round(time.perf_counter() - started, 6),
    }
    serial.write_json(manifest_path, manifest)


def list_segments(ds: Dataset, frames: int) -> list[tuple[int, int, int]]:
    """All non-overlapping full windows of the given frame count, per pair."""
    out = []
    for pair_idx, (mix, _) in enumerate(ds.pairs):
        for w in range(mix.frames // frames):
            out.append((pair_idx, w * frames, (w + 1) * frames))
    return out


def segment_id(pair_idx: int, start: int, stop: int) -> str:
    return f"{pair_idx}:{start}:{stop}"


def parse_segment_id(segment: str) -> tuple[int, int, int]:
    try:
        pair_idx, start, stop = (int(v) for v in segment.split(":"))
    except ValueError:
        raise CliError(f"malformed segment id {segment!r}, expected pair:start:stop") from None
    return pair_idx, start, stop


@contextlib.contextmanager
def _naming(where: str):
    """Prefix a FloatingPointError, FormatError or NcaError raised inside with
    the input it came from, keeping its type."""
    try:
        yield
    except (FloatingPointError, serial.FormatError, NcaError) as e:
        raise type(e)(f"{where}: {e}") from None


def _models(ck_paths, n: int):
    """Check every checkpoint's width against n from its header, then load and
    yield (ck_path, params) one at a time: a corrupt body fails on its turn.

    The generator keeps no reference to the model it yielded, so a caller
    that drops its own frees the model at once, before the next is loaded.
    A wrapper that keeps its last result, such as enumerate or zip, would
    hold the model until it is resumed."""
    for ck_path in ck_paths:
        with _naming(f"checkpoint {ck_path}"):
            if (width := checkpoint_width(ck_path)) != n:
                raise CliError(f"checkpoint {ck_path} is {width} bins wide, the dataset {n}")
    for ck_path in ck_paths:
        # yielded from inside the block, since a name for the model would hold
        # it while the caller runs; the caller's own errors never enter here
        with _naming(f"checkpoint {ck_path}"):
            yield ck_path, load_checkpoint(ck_path).params


def cmd_synth(args) -> int:
    started = time.perf_counter()
    ds = make_synthetic_dataset(args.n, args.frames, args.pairs, args.seed)
    out = Path(args.out)
    save_dataset(ds, out)
    write_manifest(Path(str(out) + ".manifest.json"), args, [], [out], started)
    return 0


def cmd_ingest(args) -> int:
    started = time.perf_counter()
    in_dir = Path(args.input)
    if not in_dir.is_dir():
        raise CliError(f"input directory {in_dir} does not exist")
    mixes = {p.name[: -len(".mix.wav")]: p for p in sorted(in_dir.glob("*.mix.wav"))}
    voxes = {p.name[: -len(".vox.wav")]: p for p in sorted(in_dir.glob("*.vox.wav"))}
    unpaired = sorted(set(mixes) ^ set(voxes))
    if unpaired:
        raise CliError(f"unpaired tracks (need both .mix.wav and .vox.wav): {', '.join(unpaired)}")
    if not mixes:
        raise CliError(f"no *.mix.wav/*.vox.wav pairs found in {in_dir}")

    # the flags are checked before any file is read; the first file read then
    # sets the dataset's rate, and every other must match it
    cfg = StftConfig(sample_rate=1, window_len=args.window, hop=args.hop, fft_size=args.fft)
    tracks, pairs, first = sorted(mixes), [], None
    for track in tracks:
        signals = []
        for path in (mixes[track], voxes[track]):
            signal, rate = load_wav_mono(path)
            if first is None:
                first, cfg = path, replace(cfg, sample_rate=rate)
            elif rate != cfg.sample_rate:
                raise WavError(f"{path}: sample rate {rate} differs from {cfg.sample_rate}, "
                               f"the rate of {first}")
            signals.append(signal)
        usable = min(map(len, signals))
        pairs.append(tuple(stft_mag(signal[:usable], cfg) for signal in signals))
    out = Path(args.out)
    save_dataset(Dataset(cfg, tracks, pairs, fit_scale([mix for mix, _ in pairs])), out)
    inputs = list(mixes.values()) + list(voxes.values())
    write_manifest(Path(str(out) + ".manifest.json"), args, inputs, [out], started)
    return 0


def _parse_seeds(raw: str) -> list[int]:
    """One or more distinct comma-separated seeds in [0, 2**64), as .ncm stores a u64."""
    try:
        seeds = [int(s) for s in raw.split(",") if s != ""]
    except ValueError:
        raise CliError(f"bad --seeds value {raw!r}, expected comma-separated integers") from None
    if not seeds:
        raise CliError("no seeds given")
    for i, seed in enumerate(seeds):
        if not 0 <= seed < 2**64:
            raise CliError(f"seed {seed} out of range, expected 0 <= seed < 2**64")
        if seed in seeds[:i]:
            raise CliError(f"seed {seed} given twice")
    return seeds


def cmd_train(args) -> int:
    """Train every seed at once, as one stack (`train_stack`), then write each
    seed's files from its float32 weights, which the checkpoint writer widens
    to float64 one matrix at a time. A failing seed ends the command before
    any file is written, with no manifest. The flags are checked before any
    file is read; the normalized rows are built once, and the dataset freed,
    before training starts, and the rows are freed before the first write."""
    started = time.perf_counter()
    # the manifest records the parsed list
    seeds = args.seeds = _parse_seeds(args.seeds)
    if args.max_epochs < 1:
        raise CliError(f"--max-epochs must be positive, got {args.max_epochs}")
    rows = normalized_pair_rows(load_dataset(args.dataset))
    results = train_stack(args.model, rows, seeds, args.max_epochs)
    del rows
    out_dir = Path(args.out)
    outputs, runs = [], []
    for seed, result in zip(seeds, results):
        ck_path = out_dir / f"{args.model}-seed{seed}.ncm"
        save_checkpoint(ck_path, result.weights, seed, result.epochs)
        csv_path = out_dir / f"{args.model}-seed{seed}-history.csv"
        serial.write_csv(csv_path, ("epoch", "mean_loss", "lr"),
                         ((i, h.mean_loss, h.lr) for i, h in enumerate(result.history)))
        outputs += [ck_path, csv_path]
        runs.append({"seed": seed, "epochs": result.epochs, "stopped_by": result.stopped_by})
    write_manifest(out_dir / f"train-{args.model}.manifest.json", args,
                   [args.dataset], outputs, started, runs=runs)
    return 0


def cmd_couplings(args) -> int:
    """Extract one couplings file and loss curve per (checkpoint, segment)
    into the --out directory, for every full window of every pair.

    --checkpoint is a glob, so one process serves every checkpoint of a run:
    the dataset is loaded once and freed as soon as the segment windows are
    cut, and every matched checkpoint's width is read from its header before
    the first extraction. The flags are checked before any file is read.

    Each checkpoint is loaded once and handled in this order: the model's
    float32 response (X, Y) on every window, then, for compositional runs,
    its float32 layer arrays; then the float64 model is dropped, and the
    iterations run on those arrays alone. At the last checkpoint each
    float64 window is dropped as soon as its response exists. Each response
    is freed as its problem finishes, and one problem's result is held at a
    time. Each checkpoint writes the same files and manifest a
    single-checkpoint call would; its manifest's wall time runs from the
    previous one (the command start, for the first).
    """
    started = time.perf_counter()
    check_settings(args.iters, args.lr, args.seed)
    if args.frames < 1:
        raise CliError(f"--frames must be positive, got {args.frames}")
    ck_paths = sorted(globlib.glob(args.checkpoint))
    if not ck_paths:
        raise CliError(f"no checkpoints match {args.checkpoint!r}")
    # the outputs are named by the checkpoint's file stem
    stems: dict[str, str] = {}
    for ck_path in ck_paths:
        stem = Path(ck_path).stem
        if stem in stems:
            raise CliError(f"checkpoints {stems[stem]} and {ck_path} share the file stem "
                           f"{stem!r}, so their outputs in {args.out} would collide")
        stems[stem] = ck_path
    ds = load_dataset(args.dataset)
    segments = list_segments(ds, args.frames)
    if not segments:
        raise CliError(f"dataset has no full {args.frames}-frame window")
    out = Path(args.out)
    n = ds.config.bins_kept
    windows = [normalized_window(ds, *seg)[0] for seg in segments]
    del ds
    seg_ids = [segment_id(*seg) for seg in segments]
    # hashed at the first manifest: hashed before the first extraction, it
    # raised the peak RSS of an n=257 couplings run by about 0.3 MiB
    ds_hash = None

    for ck_path, params in _models(ck_paths, n):
        last = ck_path == ck_paths[-1]
        responses = []
        for i, seg in enumerate(seg_ids):
            with _naming(f"checkpoint {ck_path}, segment {seg}"):
                responses.append(model_response(params, windows[i]))
            if last:
                windows[i] = None
        with _naming(f"checkpoint {ck_path}"):
            layers = compositional_layers(params) if args.strategy == "compositional" else None
        arch = params.tag
        del params
        ck_hash = serial.sha256_file(ck_path)
        ck_stem = Path(ck_path).stem
        outputs = []
        for i, (pair_idx, start, _) in enumerate(segments):
            with _naming(f"checkpoint {ck_path}, segment {seg_ids[i]}"):
                state = fit_couplings(*responses[i], layers, args.iters, args.lr, args.seed)
            responses[i] = None
            meta = {
                "strategy": args.strategy,
                "arch": arch,
                "checkpoint": ck_hash,
                "segment": seg_ids[i],
                "final_loss": state.losses[-1],
                "iterations": args.iters,
                "lr": args.lr,
                "seed": args.seed,
            }
            stem = f"{ck_stem}-{args.strategy}-{pair_idx}-{start}"
            c_path, loss_path = out / f"{stem}.ncc", out / f"{stem}-loss.csv"
            save_couplings(c_path, state.c, meta)
            serial.write_csv(loss_path, ("iteration", "l1_loss"), enumerate(state.losses))
            del state
            outputs += [c_path, loss_path]
        del layers
        manifest_path = out / f"couplings-{ck_stem}-{args.strategy}.manifest.json"
        ds_hash = ds_hash or serial.sha256_file(args.dataset)
        hashed = {ck_path: ck_hash, args.dataset: ds_hash}
        write_manifest(manifest_path, args, [ck_path, args.dataset], outputs, started, hashed)
        started = time.perf_counter()
    return 0


def cmd_analyze(args) -> int:
    """Score every couplings file and, per (checkpoint, segment) they name,
    the linear and identity baselines, all from one model run per segment.

    Every file's metadata is checked before the dataset loads, and its matrix
    is read only when its segment is scored. Each segment is cut once, then
    the dataset is freed; checkpoints go through the loop couplings uses.
    Records go by checkpoint, then segment, in the sorted files' order.

    A window of T frames has rank at most T, so when T < n its loss leaves
    part of C free; once the report is written, one warning gives how many
    scored segments are that short.

    The CSV goes beside the JSON report, with the suffix .csv, so an --out
    ending in .csv fails before any file is read, as does an --out whose
    report, CSV or manifest would overwrite the dataset, a matched couplings
    file or a checkpoint in --checkpoints."""
    started = time.perf_counter()
    out = Path(args.out)
    csv_path = out.with_suffix(".csv")
    if csv_path == out:
        raise CliError(f"--out {out} ends in .csv, where the CSV report would overwrite it")
    couplings_paths = sorted(globlib.glob(args.couplings))
    if not couplings_paths:
        raise CliError(f"no couplings files match {args.couplings!r}")
    ck_dir = Path(args.checkpoints)
    ck_paths = sorted(ck_dir.glob("*.ncm"))
    if not ck_paths:
        raise CliError(f"no checkpoints (*.ncm) found in {ck_dir}")
    read = {Path(p).resolve() for p in [args.dataset, *couplings_paths, *ck_paths]}
    for target in (out, csv_path, Path(str(out) + ".manifest.json")):
        if target.resolve() in read:
            raise CliError(f"--out {out} would overwrite {target}, one of the command's inputs")
    by_hash = {serial.sha256_file(p): p for p in ck_paths}

    groups: dict[Path, dict[str, list[str]]] = {}  # checkpoint -> segment -> paths
    bounds: dict[str, tuple[int, int, int]] = {}  # segment -> (pair, start, stop)
    for c_path in couplings_paths:
        _, meta = load_couplings(c_path, matrix=False)
        ck_hash, seg = meta.get("checkpoint", ""), meta.get("segment", "")
        if ck_hash not in by_hash:
            raise CliError(f"{c_path}: no checkpoint in {ck_dir} matches hash {ck_hash[:12]}...")
        bounds[seg] = parse_segment_id(seg)
        groups.setdefault(by_hash[ck_hash], {}).setdefault(seg, []).append(c_path)
    ds = load_dataset(args.dataset)
    n = ds.config.bins_kept
    windows = {seg: normalized_window(ds, *bound) for seg, bound in bounds.items()}
    del ds

    records: list[MetricsRecord] = []
    for ck_path, params in _models(list(groups), n):
        with _naming(f"checkpoint {ck_path}"):
            # the identity baseline scores the window itself, so it needs no matrix
            baselines = [("linear", linear_composition(params)), ("identity", None)]
        for seg, paths in groups[ck_path].items():
            x_mix, x_true = windows[seg]
            scored = []
            for c_path in paths:
                c, meta = load_couplings(c_path)
                scored.append((meta.get("strategy", "student"), c))
            with _naming(f"checkpoint {ck_path}, segment {seg}"):
                records += evaluate_segment(params, x_mix, x_true, scored + baselines, seg)
        del params, baselines

    serial.write_json(out, aggregate(records))
    write_report_csv(records, csv_path)
    inputs = list(couplings_paths) + list(by_hash.values()) + [args.dataset]
    hashed = {str(p): h for h, p in by_hash.items()}
    write_manifest(Path(str(out) + ".manifest.json"), args, inputs, [out, csv_path], started,
                   hashed)
    short = sum(stop - start < n for _, start, stop in bounds.values())
    if short:
        log.warning("analyze: %d of %d scored segments hold fewer frames than the %d bins, "
                    "so their loss does not determine their couplings matrix",
                    short, len(bounds), n)
    return 0


def cmd_heatmap(args) -> int:
    started = time.perf_counter()
    out = Path(args.out)
    check_heatmap_path(out)  # a bad suffix fails before the couplings file is read
    c, _meta = load_couplings(args.couplings)
    export_heatmap(c, out, row_normalize=args.row_normalize)
    write_manifest(Path(str(out) + ".manifest.json"), args, [args.couplings], [out], started)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every main call:
    parsing leaves it unchanged, and a parser built per call leaves about
    1.5 KB of argparse allocations behind each time."""
    parser = _Parser(
        prog="nca",
        description="Train shallow spectrogram separation models and extract "
        "linear couplings matrices from them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic quasi-harmonic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=64, help="frequency bins")
    p.add_argument("--frames", type=int, default=720, help="frames per pair")
    p.add_argument("--pairs", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="build a dataset from <track>.mix.wav/<track>.vox.wav pairs")
    p.add_argument("--input", required=True, help="directory of WAV pairs")
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=2048)
    p.add_argument("--hop", type=int, default=384)
    p.add_argument("--fft", type=int, default=4096)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train one architecture over one or more seeds")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True, choices=FAMILIES)
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--seeds", default="0", help="comma-separated seed list")
    p.add_argument("--max-epochs", type=int, default=200)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("couplings", help="extract couplings matrices from checkpoints")
    p.add_argument("--checkpoint", required=True, help="glob of .ncm files")
    p.add_argument("--dataset", required=True)
    p.add_argument("--strategy", required=True, choices=STRATEGIES)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--segment", default="all", choices=("all",),
                   help="every full window of every pair, the only choice")
    p.add_argument("--iters", type=int, default=600)
    p.add_argument("--lr", type=float, default=4e-4)
    p.add_argument("--frames", type=int, default=350, help="frames per window")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_couplings)

    p = sub.add_parser("analyze", help="score couplings files and baselines into a report")
    p.add_argument("--couplings", required=True, help="glob of .ncc files")
    p.add_argument("--checkpoints", required=True, help="directory of .ncm files")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True,
                   help="report JSON path, not *.csv (CSV written alongside)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("heatmap", help="render |C| as a grayscale image")
    p.add_argument("--couplings", required=True)
    p.add_argument("--out", required=True, help=".png path")
    p.add_argument("--row-normalize", action="store_true")
    p.set_defaults(func=cmd_heatmap)
    return parser


_KNOWN_ERRORS = (
    CliError,
    MemoryError,
    FloatingPointError,
    NcaError,
    TrainingError,
    WavError,
    serial.FormatError,
    ValueError,
    OSError,
)


def main(argv=None) -> int:
    # the subcommand is set before its flags parse, so their usage errors name it
    args = argparse.Namespace(command=None)
    try:
        build_parser().parse_args(argv, args)
        # an overflow or NaN inside a command is an error: as a warning it
        # added lines to stderr and let a command finish on saturated values
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except _KNOWN_ERRORS as e:
        # numpy raises a private subclass of MemoryError; report the public name
        error = "MemoryError" if isinstance(e, MemoryError) else type(e).__name__
        line = json.dumps({"command": args.command, "error": error, "message": str(e)})
        print(line, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
