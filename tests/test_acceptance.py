"""Acceptance suite: one test per shipping criterion, each printing a single
PASS/FAIL line with the measured numbers to the real stdout.

The desk-scale pipeline is scripts/desk_scale.sh, run exactly as documented
(synthetic dataset, three architectures over seven seeds, couplings
extraction with both strategies over all segments, report, heatmap). A
session fixture starts it twice at once in child processes, with one BLAS
thread each; the trend, baseline and stability criteria read the first run's
artifacts, and the determinism criterion compares them with the second's.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from neural_couplings import serial
from neural_couplings.analysis import tod_r
from neural_couplings.linalg import make_rng
from neural_couplings.models import (
    ModelParams,
    forward,
    init_params,
    load_checkpoint,
    model_output,
    save_checkpoint,
)
from neural_couplings.nca import (
    NcaConfig,
    compositional_objective,
    load_couplings,
    run_nca,
    save_couplings,
    shifted_layers,
)
from neural_couplings.spectral import (
    Dataset,
    Spectrogram,
    StftConfig,
    load_dataset,
    save_dataset,
)

ARCH_LIST = ("dae", "mss-dae", "sf")
STRATEGIES = ("student", "compositional")
REPO = Path(__file__).resolve().parents[1]


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _route_around_capture(request):
    # verdict lines must land on the real stdout even under pytest's
    # default fd-level capture
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")


def verdict(criterion: int, ok: bool, detail: str) -> None:
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """Two runs of scripts/desk_scale.sh started together: "root" holds the
    first run's artifacts, for criteria 5-7, and "rerun" the second's, for
    criterion 8. wall_s is the first run's wall time, taken with the rerun
    beside it."""
    top = tmp_path_factory.mktemp("desk")
    # one BLAS thread, and this tree's src/ and this interpreter's directory
    # first on the paths, so the script's python3 is the suite's own
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    for var, first in (("PYTHONPATH", REPO / "src"), ("PATH", Path(sys.executable).parent)):
        env[var] = os.pathsep.join(filter(None, [str(first), env.get(var)]))
    runs = {}
    started = time.perf_counter()
    try:
        for name in ("run", "rerun"):
            with open(top / f"{name}.stderr", "wb") as err:
                runs[name] = subprocess.Popen(
                    ["bash", str(REPO / "scripts" / "desk_scale.sh"), str(top / name)],
                    cwd=REPO, env=env, stdout=subprocess.DEVNULL, stderr=err,
                    start_new_session=True)
        runs["run"].wait()
        wall = time.perf_counter() - started
        runs["rerun"].wait()
    finally:
        # the script's python3 is a grandchild: end each run's whole group
        for child in runs.values():
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
    for name, child in runs.items():
        if child.returncode != 0:
            pytest.fail(f"desk_scale.sh ({name}) exited {child.returncode}: "
                        + (top / f"{name}.stderr").read_text())
    return {"root": top / "run", "rerun": top / "rerun", "wall_s": wall}


@pytest.fixture(scope="session")
def recovery_runs():
    """Five student-strategy fits against models that are exactly linear on
    their inputs: positive weights, zero biases, and strictly positive frames
    keep every relu active, so the model equals the plain weight product."""
    runs = []
    started = time.perf_counter()
    for s in range(5):
        rng = make_rng([777, s])
        layers = [(rng.uniform(0.05, 0.3, (8, 8)), np.zeros((8, 1))) for _ in range(2)]
        params = ModelParams("dae", layers)
        x = np.abs(rng.normal(size=(8, 64))) + 0.1
        state = run_nca(params, x, NcaConfig("student", iterations=600, lr=2.5e-3, seed=0))
        y_l1 = float(np.abs(forward(params, x)[-1]).sum())
        c_lin = layers[1][0] @ layers[0][0]
        runs.append(
            {
                "losses": state.losses,
                "rel_loss": state.losses[-1] / y_l1,
                "mae": float(np.abs(state.c - c_lin).mean()),
            }
        )
    return {"runs": runs, "elapsed_s": time.perf_counter() - started}


def test_criterion_1_model_gradient_fidelity(backward_grads, mse):
    started = time.perf_counter()
    h = 1e-6
    worst = 0.0
    checked = excluded = 0
    for a_idx, arch in enumerate(["dae", "mss-dae", "sf"]):
        for inst in range(20):
            rng = make_rng([601, a_idx, inst])
            n = int(rng.integers(3, 9))
            t = int(rng.integers(1, 5))
            base = init_params(arch, n, rng)
            params = ModelParams(
                arch, [(w, b + rng.normal(0.0, 0.1, size=b.shape)) for w, b in base.layers]
            )
            x = np.abs(rng.normal(size=(n, t)))
            tgt = np.abs(rng.normal(size=(n, t)))
            grads = backward_grads(params, forward(params, x), tgt)

            def loss_with(layer, which, idx, delta):
                layers = [(w.copy(), b.copy()) for w, b in params.layers]
                layers[layer][which][idx] += delta
                q = ModelParams(arch, layers)
                return mse(tgt, model_output(q, forward(q, x)))

            for layer in range(len(params.layers)):
                for which in (0, 1):
                    g = grads[layer][which]
                    for idx in np.ndindex(*g.shape):
                        fd = (
                            loss_with(layer, which, idx, h)
                            - loss_with(layer, which, idx, -h)
                        ) / (2 * h)
                        if max(abs(fd), abs(g[idx])) < 1e-8:
                            excluded += 1
                            continue
                        worst = max(worst, abs(fd - g[idx]) / max(abs(fd), abs(g[idx])))
                        checked += 1
    elapsed = time.perf_counter() - started
    verdict(
        1,
        worst <= 1e-4 and elapsed < 30.0,
        f"3 architectures x 20 instances, max rel err {worst:.2e} over {checked} "
        f"entries ({excluded} near-zero excluded), {elapsed:.1f}s",
    )


def _transcribed_two_layer_grads(params, p_list, x, y):
    """Literal rewrite of the two-layer gate gradients from first principles:
    C = M2 M1 with M_l = relu(P_l (W_l + b_l)^T) . W_l, so
    dE/dM1 = M2^T D and dE/dM2 = D M1^T with D = sign(C X - Y) X^T."""
    (w1, b1), (w2, b2) = params.layers
    wb1 = w1 + b1.ravel()[None, :]
    wb2 = w2 + b2.ravel()[None, :]
    gh1 = p_list[0] @ wb1.T
    gh2 = p_list[1] @ wb2.T
    m1 = np.maximum(gh1, 0.0) * w1
    m2 = np.maximum(gh2, 0.0) * w2
    delta = np.sign((m2 @ m1) @ x - y) @ x.T
    d_m1 = m2.T @ delta
    d_m2 = delta @ m1.T
    g1 = (d_m1 * w1 * (gh1 > 0)) @ wb1
    g2 = (d_m2 * w2 * (gh2 > 0)) @ wb2
    return [g1, g2]


def test_criterion_2_compositional_gradient_fidelity():
    started = time.perf_counter()
    n, t = 6, 5

    # part 1: bit-level agreement with an independent two-layer transcription
    exact = 0
    for inst in range(10):
        arch = "dae" if inst % 2 == 0 else "sf"
        params = init_params(arch, n, make_rng([50, inst]))
        rng = make_rng([51, inst])
        x = np.abs(rng.normal(size=(n, t))) + 0.1
        y = forward(params, x)[-1]
        p_list = [rng.normal(size=(n, n)) * np.sqrt(1.0 / n) for _ in range(2)]
        # X^T as the transcription reads it, a transposed view
        _, _, got = compositional_objective(p_list, shifted_layers(params.layers), x, x.T, y)
        want = _transcribed_two_layer_grads(params, p_list, x, y)
        if np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]):
            exact += 1

    # part 2: finite differences through the four-layer composition, skipping
    # entries whose perturbation could cross a gate kink
    h = 1e-6
    worst_fd = 0.0
    checked = excluded = 0
    arch4 = "mss-dae"
    for inst in range(10):
        params = init_params(arch4, n, make_rng([52, inst]))
        rng = make_rng([53, inst])
        x = np.abs(rng.normal(size=(n, t))) + 0.1
        y = forward(params, x)[-1]
        p_list = [rng.normal(size=(n, n)) * np.sqrt(1.0 / n) for _ in range(4)]
        window = (shifted_layers(params.layers), x, x.T.copy(), y)
        _, _, grads = compositional_objective(p_list, *window)
        g_hats = [q @ (w + b.T).T for q, (w, b) in zip(p_list, params.layers)]
        for layer in range(4):
            for idx in np.ndindex(n, n):
                if np.abs(g_hats[layer][idx[0], :]).min() < 1e-4:
                    excluded += 1
                    continue
                pp = [q.copy() for q in p_list]
                pm = [q.copy() for q in p_list]
                pp[layer][idx] += h
                pm[layer][idx] -= h
                fd = (
                    compositional_objective(pp, *window)[1]
                    - compositional_objective(pm, *window)[1]
                ) / (2 * h)
                g = grads[layer][idx]
                if max(abs(fd), abs(g)) < 1e-8:
                    excluded += 1
                    continue
                worst_fd = max(worst_fd, abs(fd - g) / max(abs(fd), abs(g)))
                checked += 1
    elapsed = time.perf_counter() - started
    verdict(
        2,
        exact == 10 and worst_fd <= 1e-3 and elapsed < 60.0,
        f"2-layer transcription bit-exact {exact}/10; 4-layer FD max rel err "
        f"{worst_fd:.2e} over {checked} entries ({excluded} kink or near-zero "
        f"excluded), {elapsed:.1f}s",
    )


def test_criterion_3_exact_recovery(recovery_runs):
    runs = recovery_runs["runs"]
    elapsed = recovery_runs["elapsed_s"]
    worst_rel = max(r["rel_loss"] for r in runs)
    worst_mae = max(r["mae"] for r in runs)
    verdict(
        3,
        worst_rel < 1e-2 and worst_mae < 1e-2 and elapsed < 10.0,
        f"5 linear-regime models at n=8: worst final loss {worst_rel:.2e} of l1(Y), "
        f"worst couplings MAE {worst_mae:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_diagonal_dominance_metric():
    j4 = tod_r(np.ones((4, 4)))
    mixed = tod_r(np.array([[1.0, 2.0], [3.0, -4.0]]))
    hollow = tod_r(np.array([[0.0, 7.0], [3.0, 0.0]]))
    examples_ok = (
        abs(j4 - 2.0 / 3.0) <= 1e-9
        and abs(mixed - np.sqrt(2.0)) <= 1e-9
        and hollow == 0.0
    )
    rng = make_rng(404)
    drift = 0.0
    for _ in range(100):
        size = int(rng.integers(2, 10))
        c = rng.normal(size=(size, size))
        scale = float(10.0 ** rng.uniform(-6, 6))
        a, b = tod_r(c), tod_r(scale * c)
        drift = max(drift, abs(a - b) / max(1.0, abs(a)))
    verdict(
        4,
        examples_ok and drift <= 1e-9,
        f"fixed examples {j4:.4f}, {mixed:.5f}, {hollow:.1f}; "
        f"max scale drift {drift:.2e} over 100 matrices",
    )


def _couplings_inventory(cp_dir: Path):
    """(model, seed, strategy, pair, start, path) per couplings file, parsed
    from the file naming convention <model>-seed<k>-<strategy>-<pair>-<start>."""
    rows = []
    for path in sorted(cp_dir.glob("*.ncc")):
        ck_stem, strategy, pair, start = path.stem.rsplit("-", 3)
        model, seed = ck_stem.rsplit("-seed", 1)
        rows.append((model, int(seed), strategy, int(pair), int(start), path))
    return rows


def test_criterion_5_depth_orders_diagonal_dominance(pipeline):
    rows = _couplings_inventory(pipeline["root"] / "couplings")
    per_seed: dict[tuple[str, int], list[float]] = {}
    for model, seed, strategy, _pair, _start, path in rows:
        c, meta = load_couplings(path)
        assert meta["strategy"] == strategy
        assert meta["arch"] == model
        if strategy != "compositional":
            continue
        val = tod_r(c)
        assert val is not None
        per_seed.setdefault((model, seed), []).append(val)
    assert all(len(v) == 4 for v in per_seed.values())
    assert len(per_seed) == 21  # 3 models x 7 seeds

    med = {
        model: float(np.median([np.median(per_seed[(model, s)]) for s in range(7)]))
        for model in ARCH_LIST
    }
    wall = pipeline["wall_s"]
    verdict(
        5,
        med["sf"] < med["mss-dae"] < med["dae"] and wall < 900.0,
        f"compositional TOD-R per-seed medians: sf {med['sf']:.3f} < "
        f"mss-dae {med['mss-dae']:.3f} < dae {med['dae']:.3f} "
        f"(7 seeds, 4 segments each); pipeline {wall:.0f}s with one BLAS thread, "
        f"rerun alongside",
    )


def test_criterion_6_couplings_beat_snr_baselines(pipeline):
    report = json.loads((pipeline["root"] / "report.json").read_text())
    cells = report["cells"]
    ok = True
    details = []
    for model in ARCH_LIST:
        assert set(cells[model]) == {"student", "compositional", "linear", "identity"}
        means = {m: cells[model][m]["snr_model_db"]["mean"] for m in cells[model]}
        for strategy in STRATEGIES:
            ok = ok and means[strategy] > means["identity"]
            ok = ok and means[strategy] > means["linear"]
        edge = min(means[s] - means["linear"] for s in STRATEGIES)
        if model == "mss-dae":
            ok = ok and edge >= 1.0
        details.append(f"{model} min edge over linear {edge:+.2f} dB")
    verdict(6, ok, "; ".join(details) + " (both strategies above both baselines)")


def _loss_curves(pipeline) -> list[tuple[str, list[float]]]:
    curves = []
    for path in sorted((pipeline["root"] / "couplings").glob("*-loss.csv")):
        lines = path.read_text().splitlines()[1:]
        curves.append((path.name, [float(line.split(",")[1]) for line in lines]))
    return curves


def test_criterion_7_loss_curves_are_stable(pipeline, recovery_runs, moving_average):
    curves = _loss_curves(pipeline)
    curves += [(f"recovery-{i}", r["losses"]) for i, r in enumerate(recovery_runs["runs"])]
    assert len(curves) == 168 + 5
    rises = 0
    not_reduced = 0
    for _name, losses in curves:
        ma = moving_average(losses, 50)
        rises += int((np.diff(ma) > 1e-9 * np.abs(ma[:-1])).sum())
        not_reduced += int(not losses[-1] < losses[0])
    verdict(
        7,
        rises == 0 and not_reduced == 0,
        f"{len(curves)} extraction runs: 0 increases in the 50-iteration moving "
        f"average, final loss below initial in all",
    )


def test_criterion_8_pipeline_is_bit_deterministic(pipeline):
    first, rerun = pipeline["root"], pipeline["rerun"]
    compared = 0
    mismatched = []
    for pattern in ("dataset.ncd", "checkpoints/*.ncm", "checkpoints/*-history.csv",
                    "couplings/*.ncc", "couplings/*-loss.csv", "report.json", "report.csv",
                    "sample.png"):
        a_files = sorted(first.glob(pattern))
        b_files = sorted(rerun.glob(pattern))
        assert [p.name for p in a_files] == [p.name for p in b_files]
        assert a_files, f"nothing matched {pattern}"
        for a, b in zip(a_files, b_files):
            compared += 1
            if serial.sha256_file(a) != serial.sha256_file(b):
                mismatched.append(a.name)
    verdict(
        8,
        not mismatched,
        f"{compared} artifacts (dataset, checkpoints, histories, couplings, "
        f"loss curves, reports, heatmap) bit-identical on a rerun in another process"
        + (f"; mismatched: {mismatched[:5]}" if mismatched else ""),
    )


def _random_config(rng) -> StftConfig:
    fft = int(rng.choice([30, 62]))
    window = int(rng.integers(8, fft + 1))
    return StftConfig(
        sample_rate=int(rng.integers(1000, 48001)),
        window_len=window,
        hop=int(rng.integers(1, 17)),
        fft_size=fft,
    )


def _round_trip_dataset(rng, path) -> bool:
    cfg = _random_config(rng)
    n = cfg.bins_kept
    ids, pairs = [], []
    for p in range(int(rng.integers(1, 4))):
        frames = int(rng.integers(2, 13))
        scale = 10.0 ** rng.uniform(-6, 6)
        mix = np.abs(rng.normal(size=(n, frames))) * scale
        tgt = np.abs(rng.normal(size=(n, frames))) * scale
        ids.append(f"track-{p}-{int(rng.integers(0, 999))}")
        pairs.append((Spectrogram(mix), Spectrogram(tgt)))
    ds = Dataset(cfg, ids, pairs, rng.uniform(0.5, 2.0, n), 10.0 ** rng.uniform(-12, -6))
    save_dataset(ds, path)
    back = load_dataset(path)
    again = Path(str(path) + ".b")
    save_dataset(back, again)
    same = path.read_bytes() == again.read_bytes()
    same = same and back.config == ds.config and back.ids == ds.ids
    for (m0, t0), (m1, t1) in zip(ds.pairs, back.pairs):
        same = same and np.array_equal(m0.mags, m1.mags) and np.array_equal(t0.mags, t1.mags)
    return same and np.array_equal(ds.scale, back.scale) and back.floor == ds.floor


def _round_trip_checkpoint(rng, path) -> bool:
    deep = 2 + int(rng.integers(1, 4))  # an mss-dae's layer count, 3 to 5
    tag = ("dae", "mss-dae", "sf")[int(rng.integers(0, 3))]
    n = int(rng.integers(2, 7))
    layers = [
        (rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3), rng.normal(size=(n, 1)))
        for _ in range(deep if tag == "mss-dae" else 2)
    ]
    params = ModelParams(tag, layers)
    seed = int(rng.integers(0, 2**63))
    epochs = int(rng.integers(0, 2**31))
    save_checkpoint(path, params, seed, epochs)
    back = load_checkpoint(path)
    again = Path(str(path) + ".b")
    save_checkpoint(again, back.params, back.seed, back.epochs)
    same = path.read_bytes() == again.read_bytes()
    same = same and back.params.tag == tag and back.seed == seed and back.epochs == epochs
    for (w0, b0), (w1, b1) in zip(layers, back.params.layers):
        same = same and np.array_equal(w0, w1) and np.array_equal(b0, b1)
    return same


def _round_trip_couplings(rng, path) -> bool:
    n = int(rng.integers(2, 8))
    c = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-6, 6)
    meta = {
        "strategy": ["student", "compositional"][int(rng.integers(0, 2))],
        "segment": f"{int(rng.integers(0, 4))}:0:{int(rng.integers(1, 999))}",
        "final_loss": float(rng.normal()),
        "iterations": int(rng.integers(1, 10000)),
        "nested": {"values": [int(v) for v in rng.integers(0, 9, size=3)]},
    }
    save_couplings(path, c, meta)
    c2, meta2 = load_couplings(path)
    again = Path(str(path) + ".b")
    save_couplings(again, c2, meta2)
    return path.read_bytes() == again.read_bytes() and np.array_equal(c, c2) and meta == meta2


def test_criterion_9_format_round_trips(tmp_path):
    failures = []
    for i in range(20):
        rng = make_rng([909, i])
        if not _round_trip_dataset(rng, tmp_path / f"d{i}.ncd"):
            failures.append(f"dataset {i}")
        if not _round_trip_checkpoint(rng, tmp_path / f"c{i}.ncm"):
            failures.append(f"checkpoint {i}")
        if not _round_trip_couplings(rng, tmp_path / f"k{i}.ncc"):
            failures.append(f"couplings {i}")
    verdict(
        9,
        not failures,
        "20 randomized instances per format (dataset, checkpoint, couplings) "
        "load back equal and re-save byte-identically"
        + (f"; failures: {failures[:5]}" if failures else ""),
    )
