#!/usr/bin/env python3
"""Benchmark of the `nca` pipeline, driven through its public CLI entry point.

    python3 perfbench/run.py --workload desk --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout. One single-threaded process calls
`neural_couplings.cli.main(argv)` in a closed loop: each command starts when
the previous one returns. BLAS is pinned to one thread and NCA_THREADS is
left unset (the CLI's one-worker default).

With --trace 0 the last stdout line is the end-to-end result; with --trace 1
it is the per-layer result of a separate traced run. Both are one JSON
object with the keys correct, attempted, failed and metrics. The host facts,
every per-pass sample and every failure go to
.perfbench_work/results/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = "neural_couplings"
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

DEADLINE_S = 150.0  # no pass starts after this; the run must end within 180 s

# (name, unit, better) -- BENCHMARK.json lists the same names and units.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("train_frames_per_s", "frame-epochs/s", "higher"),
    ("extract_iters_per_s", "prob-iters/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ok_ops_share", "ratio", "higher"),
    ("train_best_mse", "mse", "lower"),
    ("extract_l1_final", "l1", "lower"),
)

_STAGES = ("synth", "train", "couplings.student", "couplings.compositional", "analyze", "heatmap")
PER_LAYER = (
    tuple((f"cli.{st}.{k}", u, "lower") for st in _STAGES
          for k, u in (("s", "s"), ("self_s", "s"), ("calls", "count")))
    + tuple((f"{fn}.{k}", u, "lower") for fn in (
        "training.train", "models.forward", "models.backward", "training.adam.step",
        "nca.run_nca", "nca.compositional_grads", "nca.student_grad", "nca.compose",
        "linalg.matmul", "linalg.hadamard", "serial.write_file_atomic", "serial.sha256_file",
        "models.load_checkpoint", "spectral.load_dataset", "nca.load_couplings",
        "analysis.evaluate_segment", "analysis.export_heatmap",
    ) for k, u in (("s", "s"), ("self_s", "s"), ("calls", "count")))
    + (
        ("training.epochs", "count", "lower"),
        ("training.wasted_epoch_share", "ratio", "lower"),
        ("training.adam.step.train.s", "s", "lower"),
        ("training.adam.step.train.calls", "count", "lower"),
        ("training.adam.step.nca.s", "s", "lower"),
        ("training.adam.step.nca.calls", "count", "lower"),
        ("nca.iterations", "count", "lower"),
        ("nca.layer_gates.per_iter", "calls/iter", "lower"),
        ("nca.l1_loss.per_iter", "calls/iter", "lower"),
        ("nca.gflops_computed", "GFLOP/s", "higher"),
        ("serial.write_file_atomic.bytes", "B", "lower"),
        ("serial.sha256_file.bytes", "B", "lower"),
        ("trace.pass_s", "s", "lower"),
        ("trace.untraced_pass_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.stage_sum_s", "s", "lower"),
        ("trace.stage_gap_s", "s", "lower"),
        ("trace.self_sum_s", "s", "lower"),
    )
)


def bootstrap() -> dict:
    """Pin threading, put the checkout's src/ first on sys.path and import the
    package from there. Returns the thread settings to record. Raises
    SystemExit when the checkout has no source tree."""
    init = os.path.join(SRC, PACKAGE, "cli.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: {init} not found; run from the root of a source checkout")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    nca_threads = os.environ.pop("NCA_THREADS", None)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import neural_couplings

    where = os.path.dirname(os.path.abspath(neural_couplings.__file__))
    if where != os.path.join(SRC, PACKAGE):
        raise SystemExit(f"perfbench: imported {PACKAGE} from {where}, not from {SRC}")
    return {"OPENBLAS_NUM_THREADS": "1", "NCA_THREADS": "unset",
            "NCA_THREADS_in_environment": nca_threads}


@dataclass
class CmdResult:
    cmd: object  # workloads.Command
    seconds: float
    error: str | None = None
    outputs: object | None = None  # workloads.Outputs once checked

    @property
    def stage(self) -> str:
        return self.cmd.stage


@dataclass
class Round:
    phase: str
    index: int
    wall: float
    cpu: float
    results: list[CmdResult] = field(default_factory=list)
    traced: bool = False
    dirs: object = None  # workloads.Dirs

    def stage_seconds(self, prefix: str) -> float:
        return sum(r.seconds for r in self.results if r.stage.startswith(prefix))

    def total(self, attr: str) -> float:
        return sum(getattr(r.outputs, attr) for r in self.results if r.outputs is not None)


class Bench:
    def __init__(self, workload, seed: int, tracer=None):
        from neural_couplings import cli

        self.cli = cli
        self.w = workload
        self.seed = seed
        self.tracer = tracer
        self.rounds: list[Round] = []

    def run_round(self, phase: str, index: int, dirs, traced: bool = False) -> Round:
        """Run one phase's commands back to back, timing each; no checks."""
        from workloads import commands

        cmds = commands(self.w, phase, self.seed, dirs)
        rnd = Round(phase, index, 0.0, 0.0, traced=traced, dirs=dirs)
        cpu0, t0 = time.process_time(), time.perf_counter()
        os.makedirs(dirs.out)
        if traced:
            self.tracer.pass_id = index
            self.tracer.call("pass", self._run_commands, cmds, rnd)
        else:
            self._run_commands(cmds, rnd)
        rnd.wall = time.perf_counter() - t0
        rnd.cpu = time.process_time() - cpu0
        self.rounds.append(rnd)
        return rnd

    def _run_commands(self, cmds, rnd: Round) -> None:
        main = self.cli.main
        for cmd in cmds:
            argv = list(cmd.argv)
            start = time.perf_counter()
            error = None
            try:
                if rnd.traced:
                    rc = self.tracer.call(f"cli.{cmd.stage}", main, argv)
                else:
                    rc = main(argv)
            except SystemExit as e:  # argparse rejects the command line
                rc = e.code
            except Exception as e:  # a traceback is a failed command
                rc, error = None, f"{type(e).__name__}: {e}"
            seconds = time.perf_counter() - start
            if rc != 0 and error is None:
                error = f"exit code {rc}"
            rnd.results.append(CmdResult(cmd, seconds, error))

    def check(self, rnd: Round, reference: Round | None) -> None:
        """Load every output; compare data artifacts with the reference round."""
        from workloads import CheckFailed, check_outputs

        for i, res in enumerate(rnd.results):
            if res.error is not None:
                continue
            try:
                res.outputs = check_outputs(self.w, res.cmd, rnd.dirs.out)
            except CheckFailed as e:
                res.error = str(e)
                continue
            ref = reference.results[i].outputs if reference is not None else None
            if ref is not None and ref.digests != res.outputs.digests:
                differ = sorted(k for k in set(ref.digests) | set(res.outputs.digests)
                                if ref.digests.get(k) != res.outputs.digests.get(k))
                res.error = f"artifacts differ from {reference.phase} {reference.index}: {differ}"


def import_seconds() -> float:
    """Wall time for a fresh interpreter to import the CLI, as `nca` does."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms, which
    # quantises the measurement
    subprocess.run([sys.executable, "-c", f"import {PACKAGE}.cli"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _cache_bytes() -> dict:
    """L2 and L3 sizes from sysfs, read-only; None where unavailable."""
    out = {"l2_bytes": None, "l3_bytes": None}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            path = os.path.join(base, index)
            if not index.startswith("index"):
                continue
            with open(os.path.join(path, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(path, "size")) as f:
                size = f.read().strip()
            mult = {"K": 1024, "M": 1024**2}.get(size[-1:], 1)
            if level in ("2", "3"):
                out[f"l{level}_bytes"] = int(size.rstrip("KM")) * mult
    except (OSError, ValueError):
        pass
    return out


def host_facts(workload, threads: dict) -> dict:
    import numpy as np

    from workloads import working_set_bytes

    model = None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                         None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        **_cache_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        **threads,
    }
    ws = working_set_bytes(workload)
    facts["working_set_bytes"] = ws
    if facts["l2_bytes"]:
        facts["working_set_over_l2"] = {k: v / facts["l2_bytes"] for k, v in ws.items()}
    return facts


def _finite_or_zero(value: float) -> float:
    return float(value) if math.isfinite(value) else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _quartile(values: list[float], which: int) -> float:
    """First (which=0) or third (which=2) quartile; the value itself if alone.

    Per-round times are summarised by their fastest quartile: on a shared
    host, spells of interference from other tenants last seconds to
    minutes and only ever add time, and they moved run medians by up to a
    quarter where the fast quartile moved by under a tenth. The median and
    every sample stay in the result record.
    """
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=4)[which]


def _throughput(rounds: list[Round], prefix: str, attr: str) -> float:
    """Counted work / wall time of that stage's commands, per round; the
    fastest quartile over rounds."""
    values = [r.total(attr) / r.stage_seconds(prefix) for r in rounds
              if r.stage_seconds(prefix) > 0 and r.total(attr) > 0]
    return _quartile(values, 2)


def _first_with(rounds: list[Round], prefix: str) -> Round | None:
    return next((r for r in rounds if any(c.stage.startswith(prefix) for c in r.results)), None)


def check_losses(bench: Bench, metrics: dict) -> None:
    """Compare the deterministic losses with the reference values kept with
    the benchmark: per seed where recorded, else the workload's band. A
    mismatch fails the commands that produced the loss."""
    with open(REFERENCE) as f:
        ref = json.load(f)
    entry = ref["workloads"][bench.w.name]
    seeded = entry["seeds"].get(str(bench.seed))
    for metric, prefix in (("train_best_mse", "train"), ("extract_l1_final", "couplings")):
        value = metrics.get(metric)
        if value is None:
            continue
        if seeded is not None:
            want, rtol = seeded[metric], ref["rtol_seeded"]
        else:
            want, rtol = entry["band"][metric], entry["band_rtol"][metric]
        if abs(value - want) <= rtol * abs(want):
            continue
        rnd = _first_with(bench.rounds, prefix)
        for res in rnd.results:
            if res.stage.startswith(prefix) and res.error is None:
                res.error = f"{metric} {value!r} is not within {rtol} of reference {want!r}"


def end_to_end(bench: Bench, setup_s: list[float]) -> dict:
    timed = [r for r in bench.rounds if r.phase == "pass" and r.index > 0]
    probes = [r for r in bench.rounds if r.phase == "probe"]
    setups = [r for r in bench.rounds if r.phase == "setup"]

    def rounds_with(prefix: str) -> list[Round]:
        """The timed passes if they run the stage, else the probes, else set-up."""
        for rounds in (timed, probes, setups):
            if _first_with(rounds, prefix) is not None:
                return rounds
        return []

    values = {
        "setup_s": _quartile(setup_s, 0),
        "pass_s": _quartile([r.wall for r in timed], 0),
        "pass_s_median": _median([r.wall for r in timed]),
        "train_frames_per_s": _throughput(rounds_with("train"), "train", "frame_epochs"),
        "extract_iters_per_s": _throughput(rounds_with("couplings"), "couplings",
                                           "problem_iters"),
        "cpu_s": _quartile([r.cpu for r in timed], 0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for metric, prefix, attr in (("train_best_mse", "train", "best_mse"),
                                 ("extract_l1_final", "couplings", "final_l1")):
        rnd = _first_with(bench.rounds, prefix)
        losses = [] if rnd is None else [v for c in rnd.results if c.outputs is not None
                                         for v in getattr(c.outputs, attr)]
        if losses:  # a traced train run has no extraction
            values[metric] = statistics.fmean(losses)
    return values


def per_layer(bench: Bench) -> dict:
    untraced = [r.wall for r in bench.rounds if r.phase == "pass" and r.index > 0 and not r.traced]
    traced = [r for r in bench.rounds if r.traced]
    agg = bench.tracer.aggregate(len(traced))
    traced_s = _median([r.wall for r in traced])
    stage_sum = sum(v for k, v in agg.items() if k.startswith("cli.") and k.endswith(".s"))
    iters = agg.get("nca.iterations", 0.0)
    comp_iters = agg.get("nca.compositional_iterations", 0.0)
    epochs = agg.get("training.epochs", 0.0)
    run_s = agg.get("nca.run_nca.s", 0.0)
    agg.update({
        "trace.pass_s": traced_s,
        "trace.untraced_pass_s": _median(untraced),
        "trace.overhead_s": traced_s - _median(untraced),
        "trace.stage_sum_s": stage_sum,
        "trace.stage_gap_s": agg.get("pass.s", 0.0) - stage_sum,
        "trace.self_sum_s": sum(v for k, v in agg.items() if k.endswith(".self_s")),
        "training.wasted_epoch_share": agg.get("training.wasted_epochs", 0.0) / epochs
        if epochs else 0.0,
        "nca.layer_gates.per_iter": agg.get("nca.layer_gates.calls", 0.0) / comp_iters
        if comp_iters else 0.0,
        "nca.l1_loss.per_iter": agg.get("nca.l1_loss.calls", 0.0) / iters if iters else 0.0,
        "nca.gflops_computed": agg.get("nca.flops", 0.0) / run_s / 1e9 if run_s else 0.0,
    })
    return agg


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        reference: bool = True) -> dict:
    """One benchmark run; returns the full record, whose 'result' is printed.
    reference=False skips the loss check, to record new reference values."""
    t_begin = time.perf_counter()
    threads = bootstrap()
    from tracing import Tracer
    from workloads import WORKLOADS, Dirs

    w = WORKLOADS[workload_name]
    run_dir = os.path.join(WORK, f"{w.name}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    log_path = os.path.join(run_dir, "nca.log")
    handler = logging.FileHandler(log_path)
    pkg_log = logging.getLogger(PACKAGE)
    pkg_log.addHandler(handler)
    pkg_log.propagate = False
    bench = Bench(w, seed, Tracer() if trace else None)

    def d(name: str) -> str:
        return os.path.join(run_dir, name)

    setup_s: list[float] = []
    setups: list[Round] = []
    probes: list[Round] = []

    def set_up() -> None:
        """A fresh interpreter's import plus the set-up commands."""
        t_import = import_seconds()
        out = d(f"setup-{len(setups)}")
        setups.append(bench.run_round("setup", len(setups), Dirs(out, "", out)))
        setup_s.append(t_import + setups[-1].wall)

    try:
        set_up()
        bench.check(setups[0], None)
        setup_dir = setups[0].dirs.out

        # warm-up pass: not timed, and the reference every later pass must match
        warm = bench.run_round("pass", 0, Dirs(setup_dir, "", d("pass-0")))
        bench.check(warm, None)

        def timed_passes(start_index: int, window: float, traced: bool) -> int:
            index, start, longest = start_index, time.perf_counter(), 0.0
            while True:
                t0 = time.perf_counter()
                pass_dir = d(f"pass-{index}")
                bench.run_round("pass", index, Dirs(setup_dir, "", pass_dir), traced)
                if not trace:
                    # set-up again and probe between passes, so that their
                    # samples see the same spells of the machine as the passes
                    set_up()
                    if w.probe:
                        probes.append(bench.run_round("probe", len(probes), Dirs(
                            setup_dir, pass_dir, d(f"probe-{len(probes)}"))))
                longest = max(longest, time.perf_counter() - t0)
                index += 1
                now = time.perf_counter()
                if now - start >= window or now - t_begin + longest > DEADLINE_S:
                    return index

        if trace:
            next_index = timed_passes(1, seconds / 2, False)
            bench.tracer.install()
            try:
                timed_passes(next_index, seconds / 2, True)
            finally:
                bench.tracer.uninstall()
        else:
            timed_passes(1, seconds, False)
        for rnd in bench.rounds:
            if rnd.phase == "pass" and rnd.index > 0:
                bench.check(rnd, warm)
        if probes:
            bench.check(probes[0], None)
        for rounds in (setups, probes):
            for rnd in rounds[1:]:
                bench.check(rnd, rounds[0])

        e2e = end_to_end(bench, setup_s)
        if reference:
            check_losses(bench, e2e)
    finally:
        pkg_log.removeHandler(handler)
        handler.close()

    results = [c for r in bench.rounds for c in r.results]
    failed = [c for c in results if c.error is not None]
    e2e["ok_ops_share"] = 1.0 - len(failed) / len(results)
    units = END_TO_END
    values = e2e
    if trace:
        units, values = PER_LAYER, per_layer(bench)
    result = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        # a metric that failed commands left without samples reads 0
        "metrics": {name: {"value": _finite_or_zero(values.get(name, 0.0)), "unit": unit}
                    for name, unit, _ in units},
    }
    with open(log_path) as f:
        warnings = sum(1 for _ in f)
    record = {
        "workload": w.name,
        "why": w.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host_facts(w, threads),
        "closed_loop": {"clients": 1, "queue": None},
        "rounds": [{"phase": r.phase, "index": r.index, "traced": r.traced, "wall_s": r.wall,
                    "cpu_s": r.cpu, "commands": [[c.stage, c.seconds] for c in r.results]}
                   for r in bench.rounds],
        "failures": [{"argv": list(c.cmd.argv), "error": c.error} for c in failed],
        "package_log_lines": warnings,
        "setup_s_samples": setup_s,
        "end_to_end": e2e,
        "result": result,
    }
    if trace:
        record["per_layer"] = values
        record["untraced_targets"] = bench.tracer.missing
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{w.name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True, default=str)
    if trace:
        bench.tracer.write_csv_gz(stem + "-spans.csv.gz")
    shutil.rmtree(run_dir, ignore_errors=True)
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("desk", "train", "extract-wide"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    record = run(args.workload, args.seed, float(args.seconds), bool(args.trace))
    for f in record["failures"]:
        print(f"perfbench: FAILED {' '.join(f['argv'][:1])}: {f['error']}", file=sys.stderr)
    print(json.dumps({"host": record["host"]}, sort_keys=True))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
