"""Self-tests of the benchmark, on shrunken copies of its workloads.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run.bootstrap()
import tracing  # noqa: E402
import workloads  # noqa: E402
from neural_couplings import cli  # noqa: E402

TINY = {name: dataclasses.replace(w, n=16, train_seeds=2, epochs=2, iters=4)
        for name, w in workloads.WORKLOADS.items()}


@pytest.fixture
def tiny_work(monkeypatch, tmp_path):
    """Shrunken workloads and a scratch work dir."""
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "WORK", str(tmp_path / "work"))
    return tmp_path


@pytest.fixture
def tiny(tiny_work, monkeypatch):
    """As tiny_work, with a reference that accepts any positive loss: the
    recorded values belong to the full-size workloads."""
    band = {"band": {"train_best_mse": 1.0, "extract_l1_final": 1.0},
            "band_rtol": {"train_best_mse": 1e30, "extract_l1_final": 1e30}, "seeds": {}}
    path = tiny_work / "reference.json"
    path.write_text(json.dumps({"rtol_seeded": 0.02,
                                "workloads": {name: band for name in TINY}}))
    monkeypatch.setattr(run, "REFERENCE", str(path))
    return tiny_work


def _commands(name, seed, base):
    w = workloads.WORKLOADS[name]
    dirs = workloads.Dirs(f"{base}/setup", f"{base}/last", f"{base}/out")
    return [workloads.commands(w, phase, seed, dirs) for phase in ("setup", "pass", "probe")]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_is_a_function_of_the_seed(name):
    assert _commands(name, 7, "x") == _commands(name, 7, "x")
    assert _commands(name, 7, "x") != _commands(name, 8, "x")


def test_same_seed_generates_identical_inputs(tmp_path):
    w = TINY["desk"]
    digests = []
    for k in range(2):
        dirs = workloads.Dirs("", "", str(tmp_path / str(k)))
        os.makedirs(dirs.out)
        synth = workloads.commands(w, "pass", 5, dirs)[0]
        assert synth.stage == "synth" and cli.main(list(synth.argv)) == 0
        with open(os.path.join(dirs.out, "dataset.ncd"), "rb") as f:
            digests.append(hashlib.sha256(f.read()).hexdigest())
    assert digests[0] == digests[1]


def _printed_result(capsys, name, trace):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_end_to_end_metric_prints_with_name_and_unit(tiny, capsys, name):
    result = _printed_result(capsys, name, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {name: unit for name, unit, _ in run.END_TO_END}
    for metric in result["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_prints_every_per_layer_metric_and_matches_untraced(tiny, capsys, name):
    result = _printed_result(capsys, name, 1)
    # traced passes are checked byte for byte against the untraced warm-up pass
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {name: unit for name, unit, _ in run.PER_LAYER}
    if name != "desk":
        return
    for name in ("cli.train.calls", "training.train.calls", "models.forward.calls",
                 "training.adam.step.train.calls", "training.adam.step.nca.calls",
                 "nca.run_nca.calls", "linalg.matmul.calls", "serial.sha256_file.bytes",
                 "analysis.export_heatmap.calls"):
        assert metrics[name]["value"] > 0, name
    stages = sum(metrics[f"cli.{s}.s"]["value"] for s in run._STAGES)
    assert stages == pytest.approx(metrics["trace.stage_sum_s"]["value"])
    assert metrics["trace.self_sum_s"]["value"] >= stages
    assert metrics["trace.stage_gap_s"]["value"] < 0.05 * stages
    adam = metrics["training.adam.step.calls"]["value"]
    assert adam == metrics["training.adam.step.train.calls"]["value"] + \
        metrics["training.adam.step.nca.calls"]["value"]


def _bindings():
    import neural_couplings

    mods = {k: m for k, m in sys.modules.items() if k.startswith(neural_couplings.__name__)}
    out = {(k, attr): v for k, m in mods.items() for attr, v in vars(m).items()}
    out[("Adam", "step")] = vars(sys.modules["neural_couplings.training"].Adam)["step"]
    return out


def test_tracer_wraps_importing_bindings_and_restores_them():
    from neural_couplings import linalg, nca

    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        assert cli.run_nca is not before[("neural_couplings.nca", "run_nca")]
        assert cli.run_nca is nca.run_nca
        assert nca.matmul is linalg.matmul is not before[("neural_couplings.linalg", "matmul")]
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_partition_the_root_span():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(1000))

    def inner():
        return tracer.call("leaf", leaf) + tracer.call("leaf", leaf)

    tracer.call("root", lambda: tracer.call("inner", inner))
    agg = tracer.aggregate(1)
    assert agg["leaf.calls"] == 2
    total_self = agg["root.self_s"] + agg["inner.self_s"] + agg["leaf.self_s"]
    assert total_self == pytest.approx(agg["root.s"])


def test_changed_artifact_fails_the_command(tiny):
    w = TINY["desk"]
    bench = run.Bench(w, 1)
    rounds = []
    for k in range(2):
        rounds.append(bench.run_round("pass", k, workloads.Dirs("", "", str(tiny / f"p{k}"))))
    report = tiny / "p1" / "report.json"
    report.write_text(report.read_text().replace('"record_count"', '"record_count" ', 1))
    bench.check(rounds[0], None)
    bench.check(rounds[1], rounds[0])
    assert all(r.error is None for r in rounds[0].results)
    failed = [r.stage for r in rounds[1].results if r.error is not None]
    assert failed == ["analyze"]


def test_loss_off_reference_fails_the_command(tiny_work, monkeypatch):
    bench = run.Bench(TINY["train"], 1)
    setup = str(tiny_work / "s")
    bench.check(bench.run_round("setup", 0, workloads.Dirs(setup, "", setup)), None)
    rnd = bench.run_round("pass", 0, workloads.Dirs(setup, "", str(tiny_work / "p")))
    bench.check(rnd, None)
    ref = {"rtol_seeded": 0.02, "workloads": {"train": {
        "band": {}, "band_rtol": {}, "seeds": {"1": {"train_best_mse": 1e9}}}}}
    path = tiny_work / "reference.json"
    path.write_text(json.dumps(ref))
    monkeypatch.setattr(run, "REFERENCE", str(path))
    run.check_losses(bench, {"train_best_mse": 0.5})
    assert {r.stage for r in rnd.results if r.error is not None} == {"train"}
    assert all(r.error is None for r in bench.rounds[0].results)


def test_benchmark_json_matches_the_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert max(m["bound"] for m in spec["end_to_end"]) == \
        next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
