import contextlib
import gc
import glob
import importlib.util
import json
import os
import pathlib
import sys
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from neural_couplings import analysis, cli, serial, training
from neural_couplings.analysis import (
    aggregate,
    evaluate_segment,
    linear_composition,
    write_report_csv,
)
from neural_couplings.cli import list_segments, main, parse_segment_id
from neural_couplings.linalg import make_rng
from neural_couplings.models import (
    FAMILIES,
    ModelParams,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from neural_couplings.nca import fit_couplings, load_couplings, run_nca, save_couplings
from neural_couplings.spectral import (
    Dataset,
    Spectrogram,
    StftConfig,
    load_dataset,
    normalized_window,
    save_dataset,
)
from neural_couplings.synth import make_synthetic_dataset

MANIFEST_KEYS = {"tool", "version", "command", "flags", "inputs", "outputs", "wall_clock_s"}


def _load_bench_workloads():
    """The benchmark's command recipes, loaded from their file."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


BENCH_WORKLOADS = _load_bench_workloads()


def run_ok(argv):
    assert main(argv) == 0


def run_fail(argv, capsys, error_type):
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error_type
    assert err["command"] == argv[0]
    return err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end run shared by the read-only assertions below."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "ds.ncd"
    run_ok(["synth", "--out", str(ds), "--n", "16", "--frames", "40",
            "--pairs", "1", "--seed", "0"])
    ck_dir = root / "ck"
    run_ok(["train", "--dataset", str(ds), "--model", "dae", "--out", str(ck_dir),
            "--seeds", "0,1", "--max-epochs", "2"])
    cp_dir = root / "cp"
    run_ok(["couplings", "--checkpoint", str(ck_dir / "dae-seed0.ncm"),
            "--dataset", str(ds), "--strategy", "student", "--out", str(cp_dir),
            "--segment", "all", "--iters", "5", "--lr", "1e-3", "--frames", "20"])
    report = root / "report.json"
    run_ok(["analyze", "--couplings", str(cp_dir / "*.ncc"),
            "--checkpoints", str(ck_dir), "--dataset", str(ds),
            "--out", str(report)])
    return root


def huge_checkpoint(pipeline, ck_dir, weight_scale, bias):
    """dae-seed0 with every weight scaled and the encoder bias set, saved
    alone in ck_dir; its model overflows on any dataset window."""
    ck = load_checkpoint(pipeline / "ck" / "dae-seed0.ncm")
    ck_dir.mkdir()
    (w1, b1), *rest = [(w * weight_scale, b) for w, b in ck.params.layers]
    layers = [(w1, np.full_like(b1, bias)), *rest]
    path = ck_dir / "dae-seed0.ncm"
    save_checkpoint(path, ModelParams(ck.params.tag, layers), 0, 1)
    return path


class TestHelpers:
    def test_segment_ids_round_trip(self):
        assert parse_segment_id("1:350:700") == (1, 350, 700)

    def test_parse_segment_id_rejects_garbage(self):
        from neural_couplings.cli import CliError

        with pytest.raises(CliError):
            parse_segment_id("a:b")

    def test_list_segments_non_overlapping_full_windows(self):
        ds = make_synthetic_dataset(16, 50, 2, 0)
        assert list_segments(ds, 20) == [(0, 0, 20), (0, 20, 40), (1, 0, 20), (1, 20, 40)]


class TestUsageErrors:
    @pytest.mark.parametrize("argv, command", [
        (["train", "--dataset", "ds.ncd", "--model", "dae", "--out", "ck",
          "--batch-size", "64"], "train"),
        (["couplings", "--checkpoint", "a.ncm", "--dataset", "ds.ncd", "--strategy", "student",
          "--out", "cp", "--iters", "abc"], "couplings"),
        ([], None),
        (["--bogus", "1"], None),
    ], ids=["removed-flag", "bad-int", "no-command", "unknown-flag"])
    def test_one_json_line_and_nothing_written(self, tmp_path, capsys, monkeypatch, argv,
                                               command):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and captured.out == ""
        err = json.loads(lines[0])
        assert (err["command"], err["error"]) == (command, "CliError")
        assert list(tmp_path.iterdir()) == []

    def test_help_prints_usage_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: nca train")


class TestParser:
    def test_repeated_calls_leave_nothing_allocated(self, tmp_path):
        # a parser built per call would leave about 1.5 KB after each one
        argv = ["couplings", "--checkpoint", "a.ncm", "--dataset", "ds.ncd",
                "--strategy", "student", "--out", str(tmp_path / "cp"), "--frames", "0"]
        with open(os.devnull, "w") as devnull, contextlib.redirect_stderr(devnull):
            assert main(argv) == 1  # warm-up
            gc.collect()
            tracemalloc.start()
            try:
                for _ in range(20):
                    main(argv)
                devnull.flush()  # a text stream holds the lines it has not flushed
                gc.collect()
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        assert held < 2048

    @pytest.mark.parametrize("workload", sorted(BENCH_WORKLOADS.WORKLOADS))
    def test_every_benchmark_command_parses(self, workload, tmp_path):
        # a flag the benchmark passes must not leave the parser
        w = BENCH_WORKLOADS.WORKLOADS[workload]
        dirs = BENCH_WORKLOADS.Dirs(*(str(tmp_path / d) for d in ("setup", "last", "out")))
        for phase in ("setup", "pass", "probe"):
            for cmd in BENCH_WORKLOADS.commands(w, phase, 0, dirs):
                args = cli.build_parser().parse_args(cmd.argv)
                assert args.command == cmd.stage.split(".")[0]

    def test_a_desk_pass_passes_the_benchmark_output_checks(self, tmp_path):
        # a change to a loader, a file name or a CSV column fails here, not
        # in the benchmark
        w = BENCH_WORKLOADS.WORKLOADS["desk"]
        out = str(tmp_path / "pass")
        dirs = BENCH_WORKLOADS.Dirs(out, "", out)
        cmds = BENCH_WORKLOADS.commands(w, "pass", 0, dirs)
        assert {cmd.stage.split(".")[0] for cmd in cmds} == set(w.passes)
        for cmd in cmds:
            run_ok(list(cmd.argv))
            BENCH_WORKLOADS.check_outputs(w, cmd, out)


class TestSynthCommand:
    def test_writes_dataset_and_manifest(self, pipeline):
        ds = load_dataset(pipeline / "ds.ncd")
        assert ds.config.bins_kept == 16
        assert len(ds.pairs) == 1
        manifest = json.loads((pipeline / "ds.ncd.manifest.json").read_text())
        assert set(manifest) == MANIFEST_KEYS
        assert manifest["command"] == "synth"
        assert manifest["flags"]["seed"] == 0
        key = str(pipeline / "ds.ncd")
        assert manifest["outputs"][key] == serial.sha256_file(pipeline / "ds.ncd")

    def test_matches_library_generator(self, pipeline):
        ds = load_dataset(pipeline / "ds.ncd")
        want = make_synthetic_dataset(16, 40, 1, 0)
        assert np.array_equal(ds.pairs[0][0].mags, want.pairs[0][0].mags)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.ncd", tmp_path / "b.ncd"
        for p in (a, b):
            run_ok(["synth", "--out", str(p), "--n", "16", "--frames", "20", "--pairs", "1"])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_n_reports_json_error(self, tmp_path, capsys):
        run_fail(["synth", "--out", str(tmp_path / "x.ncd"), "--n", "4"],
                 capsys, "ValueError")

    def test_negative_seed_names_the_seed(self, tmp_path, capsys):
        err = run_fail(["synth", "--out", str(tmp_path / "x.ncd"), "--seed", "-1"],
                       capsys, "ValueError")
        assert err["message"] == "seed must be non-negative, got -1"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [("--frames", "100000000000000"),
                                             ("--n", "100000000000")])
    def test_an_allocation_too_large_is_one_json_line(self, tmp_path, capsys, flag, value):
        argv = ["synth", "--out", str(tmp_path / "x.ncd"), "--n", "64", flag, value]
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and captured.out == ""
        err = json.loads(lines[0])
        assert (err["command"], err["error"]) == ("synth", "MemoryError")
        assert "allocate" in err["message"]
        assert list(tmp_path.iterdir()) == []

    def test_missing_output_directory_is_created(self, tmp_path):
        out = tmp_path / "new" / "ds.ncd"
        run_ok(["synth", "--out", str(out), "--n", "16", "--frames", "20"])
        assert load_dataset(out).config.bins_kept == 16
        assert (tmp_path / "new" / "ds.ncd.manifest.json").exists()

    def test_unwritable_output_names_the_target(self, tmp_path, capsys):
        (tmp_path / "file").write_bytes(b"")
        out = tmp_path / "file" / "ds.ncd"
        err = run_fail(["synth", "--out", str(out), "--n", "16", "--frames", "20"],
                       capsys, "FileExistsError")
        assert err["message"].endswith(repr(str(out)))


class TestTrainCommand:
    def test_writes_checkpoint_and_history_per_seed(self, pipeline):
        for seed in (0, 1):
            ck = load_checkpoint(pipeline / "ck" / f"dae-seed{seed}.ncm")
            assert ck.params.tag == "dae"
            assert ck.params.n == 16
            assert ck.seed == seed
            assert ck.epochs == 2
            hist = (pipeline / "ck" / f"dae-seed{seed}-history.csv").read_text().splitlines()
            assert hist[0] == "epoch,mean_loss,lr"
            assert len(hist) == 3

    def test_dataset_without_frames_is_refused(self, tmp_path, capsys):
        cfg = StftConfig(sample_rate=8000, window_len=4, hop=2, fft_size=4)
        empty = Spectrogram(np.zeros((3, 0)))
        save_dataset(Dataset(cfg, ["t0"], [(empty, empty)], np.ones(3)), tmp_path / "ds.ncd")
        err = run_fail(["train", "--dataset", str(tmp_path / "ds.ncd"), "--model", "dae",
                        "--out", str(tmp_path / "ck")], capsys, "TrainingError")
        assert err["message"] == "seed 0: no frames to train on"
        assert not (tmp_path / "ck").exists()

    def test_manifest_covers_all_outputs(self, pipeline):
        manifest = json.loads((pipeline / "ck" / "train-dae.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["flags"]["seeds"] == [0, 1]
        assert len(manifest["outputs"]) == 4

    def test_manifest_records_why_each_seed_stopped(self, pipeline):
        manifest = json.loads((pipeline / "ck" / "train-dae.manifest.json").read_text())
        assert set(manifest) == MANIFEST_KEYS | {"runs"}
        assert manifest["runs"] == [
            {"seed": 0, "epochs": 2, "stopped_by": "max_epochs"},
            {"seed": 1, "epochs": 2, "stopped_by": "max_epochs"},
        ]

    def test_unknown_model_is_an_argparse_error(self, pipeline, capsys):
        err = run_fail(["train", "--dataset", str(pipeline / "ds.ncd"), "--model", "vae",
                        "--out", str(pipeline / "nope")], capsys, "CliError")
        assert "--model" in err["message"]
        assert not (pipeline / "nope").exists()

    def test_bad_seed_list(self, pipeline, capsys):
        run_fail(["train", "--dataset", str(pipeline / "ds.ncd"), "--model", "dae",
                  "--out", str(pipeline / "nope"), "--seeds", "a,b"], capsys, "CliError")

    @pytest.mark.parametrize("seed", [str(2**64), "-1"])
    def test_seed_out_of_range_fails_before_loading(self, tmp_path, capsys, seed):
        # the dataset does not exist, so a CliError proves the check runs first
        err = run_fail(["train", "--dataset", str(tmp_path / "gone.ncd"), "--model", "dae",
                        "--out", str(tmp_path / "ck"), "--seeds", f"0,{seed}"],
                       capsys, "CliError")
        assert seed in err["message"]
        assert not (tmp_path / "ck").exists()

    def test_rows_outside_float32_range_are_refused(self, tmp_path, capsys):
        # a bin whose stored std is 1e-40 scales its magnitudes past about
        # 3.4e38, the float32 range training runs in; the rows are finite in
        # float64, and the guard refuses them before the first epoch
        ds = make_synthetic_dataset(16, 40, 1, 0)
        ds.scale[3] = 1e-40
        ds_path = tmp_path / "ds.ncd"
        save_dataset(ds, ds_path)
        err = run_fail(["train", "--dataset", str(ds_path), "--model", "dae",
                        "--out", str(tmp_path / "ck"), "--seeds", "5"], capsys, "TrainingError")
        assert err["message"].startswith("seed 5: a mixture row holds values")
        assert "float32 range |v| <= 3.40282e+38, in which training runs" in err["message"]
        assert not (tmp_path / "ck").exists()

    def test_missing_output_directories_are_created(self, pipeline, tmp_path):
        out = tmp_path / "a" / "b"
        run_ok(["train", "--dataset", str(pipeline / "ds.ncd"), "--model", "sf",
                "--out", str(out), "--max-epochs", "1"])
        assert sorted(p.name for p in out.iterdir()) == [
            "sf-seed0-history.csv", "sf-seed0.ncm", "train-sf.manifest.json"]

    def test_missing_dataset_file(self, tmp_path, capsys):
        err = run_fail(["train", "--dataset", str(tmp_path / "gone.ncd"), "--model", "dae",
                        "--out", str(tmp_path / "ck")], capsys, "FileNotFoundError")
        assert "gone.ncd" in err["message"]

    def test_empty_seed_list(self, pipeline, tmp_path, capsys):
        err = run_fail(["train", "--dataset", str(pipeline / "ds.ncd"), "--model", "dae",
                        "--out", str(tmp_path / "ck"), "--seeds", ","], capsys, "CliError")
        assert err["message"] == "no seeds given"
        assert not (tmp_path / "ck").exists()

    def test_peak_memory_is_model_state_plus_one_dataset(self, tmp_path):
        # n=257, two 1000-frame pairs: the dataset is 7.8 MiB and one mss-dae
        # parameter vector P is 2.0 MiB. A seed holds 5 P of model state
        # (weights, gradient, best-epoch snapshot, Adam's two moments) and
        # the normalized rows, one dataset; a sixth P and half a dataset
        # cover the initial draw, Adam's scratch and a batch's activations.
        # While the raw dataset stayed loaded beside the rows, the peak was
        # one dataset more.
        n, frames = 257, 1000
        ds_path = tmp_path / "ds.ncd"
        save_dataset(make_synthetic_dataset(n, frames, 2, 0), ds_path)
        dataset_bytes = 2 * 2 * n * frames * 8
        param_bytes = FAMILIES["mss-dae"] * (n * n + n) * 8
        tracemalloc.start()
        try:
            run_ok(["train", "--dataset", str(ds_path), "--model", "mss-dae",
                    "--out", str(tmp_path / "ck"), "--seeds", "0,1", "--max-epochs", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * param_bytes + 1.5 * dataset_bytes

    def test_repeated_seed_fails_before_loading(self, tmp_path, capsys):
        # the dataset does not exist, so a CliError proves the check runs first
        err = run_fail(["train", "--dataset", str(tmp_path / "gone.ncd"), "--model", "dae",
                        "--out", str(tmp_path / "ck"), "--seeds", "6,2,6"], capsys, "CliError")
        assert err["message"] == "seed 6 given twice"
        assert not (tmp_path / "ck").exists()

    def test_zero_epochs_fail_before_loading(self, tmp_path, capsys):
        # the dataset does not exist, so a CliError proves the check runs first
        err = run_fail(["train", "--dataset", str(tmp_path / "gone.ncd"), "--model", "dae",
                        "--out", str(tmp_path / "ck"), "--max-epochs", "0"], capsys, "CliError")
        assert err["message"] == "--max-epochs must be positive, got 0"
        assert not (tmp_path / "ck").exists()

    def test_runs_each_seed_independently(self, pipeline, tmp_path, monkeypatch):
        # 16-frame batches and a 3e-2 starting rate make the seeds of the
        # 40-frame dataset halve their rate and stop at different epochs: in
        # each family one of seeds 0, 3 and 7 stops by patience while another
        # trains on to the budget. Each seed's files are the bytes a
        # one-seed command writes.
        monkeypatch.setattr(training, "BATCH_SIZE", 16)
        monkeypatch.setattr(training, "INITIAL_LR", 3e-2)
        seeds = ("0", "3", "7")
        for model in FAMILIES:
            for out, given in [("stack", seeds)] + [(f"solo{s}", (s,)) for s in seeds]:
                run_ok(["train", "--dataset", str(pipeline / "ds.ncd"), "--model", model,
                        "--out", str(tmp_path / model / out), "--seeds", ",".join(given),
                        "--max-epochs", "60"])
            stack = tmp_path / model / "stack"
            runs = json.loads((stack / f"train-{model}.manifest.json").read_text())["runs"]
            assert {r["stopped_by"] for r in runs} == {"patience", "max_epochs"}, model
            assert min(r["epochs"] for r in runs) < 60
            for seed in seeds:
                history = (stack / f"{model}-seed{seed}-history.csv").read_text().splitlines()
                assert len({line.rsplit(",", 1)[1] for line in history[1:]}) > 1  # halved
                for name in (f"{model}-seed{seed}.ncm", f"{model}-seed{seed}-history.csv"):
                    assert (stack / name).read_bytes() == \
                        (tmp_path / model / f"solo{seed}" / name).read_bytes()

    def test_one_result_is_held_at_a_time(self, pipeline, tmp_path, monkeypatch):
        # the seeds train as one float32 stack, and each checkpoint is saved
        # from its seed's float32 weights, views of the one best-epoch
        # snapshot that the checkpoint writer widens a matrix at a time: no
        # float64 copy of a whole model is made
        saved = []

        def saving(path, params, seed, epochs):
            assert all(a.dtype == np.float32 for layer in params.layers for a in layer)
            saved.append(params.layers[0][0])
            save_checkpoint(path, params, seed, epochs)

        def no_copy(result):
            raise AssertionError("a float64 copy of a model was made")

        monkeypatch.setattr(cli, "save_checkpoint", saving)
        monkeypatch.setattr(training.TrainResult, "params", property(no_copy))
        run_ok(["train", "--dataset", str(pipeline / "ds.ncd"), "--model", "mss-dae",
                "--out", str(tmp_path / "ck"), "--seeds", "0,1,2", "--max-epochs", "1"])
        assert len(saved) == 3
        assert all(np.shares_memory(saved[0].base, w.base) for w in saved[1:])

    def test_failing_seed_ends_the_command(self, pipeline, tmp_path, capsys, monkeypatch):
        # seed 1's weights turn NaN after its first step, while seeds 0 and 2
        # train on beside it: its next loss is non-finite, the command names
        # it, and no seed's files and no manifest are written
        made = []

        class PoisoningAdam(training.Adam):
            def step(self, p, g):
                super().step(p, g)
                if self is made[1]:
                    p[:] = np.nan

        def adam(lr):
            made.append(PoisoningAdam(lr))
            return made[-1]

        monkeypatch.setattr(training, "Adam", adam)
        # run_fail parses stderr as one JSON document, so a second line fails it
        err = run_fail(["train", "--dataset", str(pipeline / "ds.ncd"), "--model", "dae",
                        "--out", str(tmp_path / "ck"), "--seeds", "0,1,2", "--max-epochs", "3"],
                       capsys, "TrainingError")
        assert err["message"] == "seed 1: training diverged: non-finite loss at epoch 1, batch 0"
        assert len(made) == 3
        assert not (tmp_path / "ck").exists()


class TestCouplingsCommand:
    def test_one_file_per_segment_with_loss_curves(self, pipeline):
        names = sorted(p.name for p in (pipeline / "cp").iterdir())
        assert names == [
            "couplings-dae-seed0-student.manifest.json",
            "dae-seed0-student-0-0-loss.csv",
            "dae-seed0-student-0-0.ncc",
            "dae-seed0-student-0-20-loss.csv",
            "dae-seed0-student-0-20.ncc",
        ]
        losses = (pipeline / "cp" / "dae-seed0-student-0-0-loss.csv").read_text().splitlines()
        assert losses[0] == "iteration,l1_loss"
        assert len(losses) == 7  # 5 iterations + final entry + header

    def test_metadata_names_checkpoint_and_segment(self, pipeline):
        c, meta = load_couplings(pipeline / "cp" / "dae-seed0-student-0-20.ncc")
        assert c.shape == (16, 16)
        assert meta["strategy"] == "student"
        assert meta["arch"] == "dae"
        assert meta["segment"] == "0:20:40"
        assert meta["iterations"] == 5
        assert meta["checkpoint"] == serial.sha256_file(pipeline / "ck" / "dae-seed0.ncm")

    @pytest.mark.parametrize("strategy", ["student", "compositional"])
    def test_each_problem_is_what_run_nca_returns(self, pipeline, tmp_path, strategy):
        # the library's one-window entry and the command give the same bits
        ck = pipeline / "ck" / "dae-seed0.ncm"
        run_ok(["couplings", "--checkpoint", str(ck), "--dataset", str(pipeline / "ds.ncd"),
                "--strategy", strategy, "--out", str(tmp_path), "--iters", "4",
                "--lr", "2e-3", "--frames", "20", "--seed", "5"])
        x_mix, _ = normalized_window(load_dataset(pipeline / "ds.ncd"), 0, 20, 40)
        state = run_nca(load_checkpoint(ck).params, x_mix, strategy, 4, 2e-3, 5)
        c, meta = load_couplings(tmp_path / f"dae-seed0-{strategy}-0-20.ncc")
        assert np.array_equal(c, state.c)
        assert meta["final_loss"] == state.losses[-1]
        lines = (tmp_path / f"dae-seed0-{strategy}-0-20-loss.csv").read_text().splitlines()
        # a float's CSV cell is its repr, which reads back to the same value
        assert [(int(i), float(e)) for i, e in (line.split(",") for line in lines[1:])] == \
            list(enumerate(state.losses))

    def test_compositional_files_and_manifest_in_the_out_directory(self, pipeline, tmp_path):
        out = tmp_path / "cp"
        run_ok(["couplings", "--checkpoint", str(pipeline / "ck" / "dae-seed0.ncm"),
                "--dataset", str(pipeline / "ds.ncd"), "--strategy", "compositional",
                "--out", str(out), "--iters", "3", "--frames", "20"])
        _, meta = load_couplings(out / "dae-seed0-compositional-0-20.ncc")
        assert (meta["strategy"], meta["segment"]) == ("compositional", "0:20:40")
        manifest = json.loads((out / "couplings-dae-seed0-compositional.manifest.json")
                              .read_text())
        assert manifest["flags"]["segment"] == "all"
        assert sorted(manifest["outputs"]) == sorted(str(out / name) for name in (
            "dae-seed0-compositional-0-0.ncc", "dae-seed0-compositional-0-0-loss.csv",
            "dae-seed0-compositional-0-20.ncc", "dae-seed0-compositional-0-20-loss.csv"))

    def test_missing_out_directory_is_created(self, pipeline, tmp_path):
        out = tmp_path / "new" / "cp"
        run_ok(["couplings", "--checkpoint", str(pipeline / "ck" / "dae-seed0.ncm"),
                "--dataset", str(pipeline / "ds.ncd"), "--strategy", "student",
                "--out", str(out), "--iters", "3", "--frames", "20"])
        assert load_couplings(out / "dae-seed0-student-0-0.ncc")[1]["segment"] == "0:0:20"
        assert len(list(out.iterdir())) == 1 + 2 * 2  # a manifest, 2 segments x 2 files

    @pytest.mark.parametrize("flag, value", [("--frames", "0"), ("--segment", "first"),
                                             ("--segment", "0"), ("--segment", "1")])
    def test_bad_flags_fail_before_any_file_is_read(self, pipeline, tmp_path, capsys,
                                                    flag, value):
        # the dataset does not exist, so a CliError proves the check runs first
        assert main(["couplings", "--checkpoint", str(pipeline / "ck" / "dae-seed0.ncm"),
                     "--dataset", str(tmp_path / "gone.ncd"), "--strategy", "student",
                     "--out", str(tmp_path / "cp"), flag, value]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "CliError" and flag in err["message"]
        assert not (tmp_path / "cp").exists()

    def test_one_problem_is_held_at_a_time(self, pipeline, tmp_path, monkeypatch):
        # before every extraction the dataset and every earlier result are
        # gone, and before every checkpoint load every earlier model is
        datasets, results, models = [], [], []

        def loading(path):
            ds = load_dataset(path)
            datasets.append(weakref.ref(ds))
            return ds

        def loading_model(path):
            assert all(ref() is None for ref in models)
            ck = load_checkpoint(path)
            models.append(weakref.ref(ck.params))
            return ck

        def extracting(x, y, *settings):
            assert len(datasets) == 1 and datasets[0]() is None
            assert all(ref() is None for ref in results)
            state = fit_couplings(x, y, *settings)
            results.extend(weakref.ref(a) for a in (state, state.c))
            return state

        monkeypatch.setattr(cli, "load_dataset", loading)
        monkeypatch.setattr(cli, "load_checkpoint", loading_model)
        monkeypatch.setattr(cli, "fit_couplings", extracting)
        run_ok(["couplings", "--checkpoint", str(pipeline / "ck" / "dae-seed*.ncm"),
                "--dataset", str(pipeline / "ds.ncd"), "--strategy", "compositional",
                "--out", str(tmp_path / "cp"), "--iters", "3", "--frames", "20"])
        assert len(results) == 2 * 2 * 2  # 2 checkpoints x 2 segments
        assert len(models) == 2  # each checkpoint is loaded once

    @pytest.mark.parametrize("strategy", ["student", "compositional"])
    @pytest.mark.parametrize("checkpoints", ["dae-seed0.ncm", "dae-seed*.ncm"],
                             ids=["one", "two"])
    def test_iterations_hold_no_float64_model_or_window(self, pipeline, tmp_path, monkeypatch,
                                                        strategy, checkpoints):
        # the iterations read only the float32 responses and layer arrays:
        # each model is gone before its own first iteration, every window
        # once the last checkpoint's responses exist, and each response
        # once its problem has finished
        models, windows, responses, seen = [], [], [], []

        def loading_model(path):
            ck = load_checkpoint(path)
            models.append(weakref.ref(ck.params))
            return ck

        def cutting(ds, *bounds):
            window = normalized_window(ds, *bounds)
            windows.append(weakref.ref(window[0]))
            return window

        def extracting(x, y, *settings):
            assert all(ref() is None for ref in models)
            assert all(ref() is None for ref in responses)
            seen.append(sum(ref() is not None for ref in windows))
            state = fit_couplings(x, y, *settings)
            responses.extend(weakref.ref(a) for a in (x, y))
            return state

        monkeypatch.setattr(cli, "load_checkpoint", loading_model)
        monkeypatch.setattr(cli, "normalized_window", cutting)
        monkeypatch.setattr(cli, "fit_couplings", extracting)
        run_ok(["couplings", "--checkpoint", str(pipeline / "ck" / checkpoints),
                "--dataset", str(pipeline / "ds.ncd"), "--strategy", strategy,
                "--out", str(tmp_path / "cp"), "--iters", "3", "--frames", "20"])
        # windows alive at each iteration start: both while a later
        # checkpoint still needs them, none at the last checkpoint
        assert seen == [2, 2] * (len(models) - 1) + [0, 0]
        assert len(windows) == 2

    def test_each_input_is_hashed_once(self, pipeline, tmp_path, monkeypatch):
        hashed = []
        sha256_file = serial.sha256_file
        monkeypatch.setattr(serial, "sha256_file",
                            lambda path: hashed.append(str(path)) or sha256_file(path))
        run_ok(["couplings", "--checkpoint", str(pipeline / "ck" / "dae-seed*.ncm"),
                "--dataset", str(pipeline / "ds.ncd"), "--strategy", "student",
                "--out", str(tmp_path / "cp"), "--iters", "3", "--frames", "20"])
        inputs = [str(pipeline / "ck" / f"dae-seed{s}.ncm") for s in (0, 1)]
        inputs.append(str(pipeline / "ds.ncd"))
        assert [hashed.count(p) for p in inputs] == [1, 1, 1]
        assert len(hashed) == len(set(hashed))  # and each output once

    def test_corrupt_body_fails_on_its_turn_and_names_its_file(self, pipeline, tmp_path,
                                                                capsys):
        # headers are all read first; a body is read only when its turn comes
        ck_dir = tmp_path / "ck"
        ck_dir.mkdir()
        raw = (pipeline / "ck" / "dae-seed0.ncm").read_bytes()
        (ck_dir / "a.ncm").write_bytes(raw)
        (ck_dir / "b.ncm").write_bytes(raw[:-100])
        # run_fail parses stderr as one JSON document, so a second line fails it
        err = run_fail(["couplings", "--checkpoint", str(ck_dir / "*.ncm"),
                        "--dataset", str(pipeline / "ds.ncd"), "--strategy", "student",
                        "--out", str(tmp_path / "cp"), "--iters", "3", "--frames", "20"],
                       capsys, "FormatError")
        assert str(ck_dir / "b.ncm") in err["message"] and "truncated" in err["message"]
        assert sorted(p.name for p in (tmp_path / "cp").iterdir()) == [
            "a-student-0-0-loss.csv", "a-student-0-0.ncc", "a-student-0-20-loss.csv",
            "a-student-0-20.ncc", "couplings-a-student.manifest.json"]

    def test_out_ending_in_ncc_is_a_directory(self, pipeline, tmp_path):
        run_ok(["couplings", "--checkpoint", str(pipeline / "ck" / "dae-seed0.ncm"),
                "--dataset", str(pipeline / "ds.ncd"), "--strategy", "student",
                "--out", str(tmp_path / "one.ncc"), "--iters", "3", "--frames", "20"])
        assert (tmp_path / "one.ncc" / "dae-seed0-student-0-0.ncc").is_file()
        assert (tmp_path / "one.ncc" / "couplings-dae-seed0-student.manifest.json").is_file()

    def test_frames_must_be_positive(self, pipeline, tmp_path, capsys):
        for frames in ("0", "-3"):
            err = run_fail(
                ["couplings", "--checkpoint", str(pipeline / "ck" / "dae-seed0.ncm"),
                 "--dataset", str(pipeline / "ds.ncd"), "--strategy", "student",
                 "--out", str(tmp_path / "cp"), "--iters", "3", "--frames", frames],
                capsys, "CliError")
            assert "--frames" in err["message"]

    def test_hostile_checkpoint_header(self, pipeline, tmp_path, capsys):
        # declares a (2^32 - 1)^2 first weight matrix
        raw = bytearray((pipeline / "ck" / "dae-seed0.ncm").read_bytes())
        raw[17:25] = b"\xff" * 8
        crafted = tmp_path / "hostile.ncm"
        crafted.write_bytes(bytes(raw))
        run_fail(["couplings", "--checkpoint", str(crafted), "--dataset",
                  str(pipeline / "ds.ncd"), "--strategy", "student",
                  "--out", str(tmp_path / "c"), "--frames", "20"], capsys, "FormatError")

    def test_checkpoint_glob_matches_single_checkpoint_calls(self, pipeline, tmp_path):
        common = ["--dataset", str(pipeline / "ds.ncd"), "--strategy", "compositional",
                  "--iters", "3", "--frames", "20"]
        run_ok(["couplings", "--checkpoint", str(pipeline / "ck" / "dae-seed*.ncm"),
                "--out", str(tmp_path / "glob"), *common])
        for seed in (0, 1):
            run_ok(["couplings", "--checkpoint", str(pipeline / "ck" / f"dae-seed{seed}.ncm"),
                    "--out", str(tmp_path / "single"), *common])
        names = sorted(p.name for p in (tmp_path / "single").iterdir())
        assert sorted(p.name for p in (tmp_path / "glob").iterdir()) == names
        assert len(names) == 2 * (1 + 2 * 2)  # per seed: a manifest, 2 segments x 2 files
        for name in names:
            if not name.endswith(".manifest.json"):
                assert (tmp_path / "glob" / name).read_bytes() == \
                    (tmp_path / "single" / name).read_bytes()
        manifest = json.loads(
            (tmp_path / "glob" / "couplings-dae-seed1-compositional.manifest.json").read_text())
        assert sorted(manifest["inputs"]) == sorted(
            [str(pipeline / "ck" / "dae-seed1.ncm"), str(pipeline / "ds.ncd")])
        assert len(manifest["outputs"]) == 4

    def test_checkpoint_glob_that_matches_nothing(self, pipeline, tmp_path, capsys):
        err = run_fail(["couplings", "--checkpoint", str(pipeline / "ck" / "none-*.ncm"),
                        "--dataset", str(pipeline / "ds.ncd"), "--strategy", "student",
                        "--out", str(tmp_path / "cp")], capsys, "CliError")
        assert "none-*.ncm" in err["message"]

    def test_every_width_is_checked_before_extraction(self, pipeline, tmp_path, capsys):
        ck_dir = tmp_path / "ck"
        ck_dir.mkdir()
        (ck_dir / "a.ncm").write_bytes((pipeline / "ck" / "dae-seed0.ncm").read_bytes())
        save_checkpoint(ck_dir / "b.ncm", init_params("dae", 20, make_rng(0)), 0, 1)
        err = run_fail(["couplings", "--checkpoint", str(ck_dir / "*.ncm"),
                        "--dataset", str(pipeline / "ds.ncd"), "--strategy", "student",
                        "--out", str(tmp_path / "cp"), "--iters", "3", "--frames", "20"],
                       capsys, "CliError")
        assert "b.ncm" in err["message"] and "20" in err["message"]
        assert not (tmp_path / "cp").exists()

    def test_checkpoints_sharing_a_file_name_are_refused(self, pipeline, tmp_path, capsys):
        # the outputs are named by the checkpoint's file stem, so the second
        # would overwrite the first's; the dataset does not exist, so a
        # CliError proves the check runs before it is read
        paths = [tmp_path / "ck" / side / "dae-seed0.ncm" for side in ("a", "b")]
        for path in paths:
            path.parent.mkdir(parents=True)
            path.write_bytes((pipeline / "ck" / "dae-seed0.ncm").read_bytes())
        err = run_fail(["couplings", "--checkpoint", str(tmp_path / "ck" / "*" / "dae-seed0.ncm"),
                        "--dataset", str(tmp_path / "gone.ncd"), "--strategy", "student",
                        "--out", str(tmp_path / "cp"), "--iters", "3", "--frames", "20"],
                       capsys, "CliError")
        assert str(paths[0]) in err["message"] and str(paths[1]) in err["message"]
        assert not (tmp_path / "cp").exists()

    @pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--lr", "inf"),
                                             ("--lr", "0"), ("--iters", "0"),
                                             ("--seed", "-1")])
    def test_bad_settings_fail_before_any_work(self, pipeline, tmp_path, capsys, flag, value):
        # the dataset does not exist, so a ValueError proves the check runs first
        assert main(["couplings", "--checkpoint", str(pipeline / "ck" / "dae-seed0.ncm"),
                     "--dataset", str(tmp_path / "gone.ncd"), "--strategy", "student",
                     "--out", str(tmp_path / "cp"), flag, value]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ValueError"
        assert not (tmp_path / "cp").exists()

    def test_overflow_names_checkpoint_and_segment(self, pipeline, tmp_path, capsys):
        huge = huge_checkpoint(pipeline, tmp_path / "ck", 1e160, 0.0)
        err = run_fail(["couplings", "--checkpoint", str(huge),
                        "--dataset", str(pipeline / "ds.ncd"), "--strategy", "student",
                        "--out", str(tmp_path / "cp"), "--iters", "3", "--frames", "20"],
                       capsys, "FloatingPointError")
        assert "overflow" in err["message"]
        assert str(huge) in err["message"] and "0:0:20" in err["message"]

    @pytest.mark.parametrize("strategy", ["student", "compositional"])
    def test_model_outside_float32_range_is_refused(self, pipeline, tmp_path, capsys,
                                                    strategy):
        # weights scaled by 1e40 are finite in float64, but the extraction
        # runs in float32, whose largest value is about 3.4e38
        huge = huge_checkpoint(pipeline, tmp_path / "ck", 1e40, 0.0)
        err = run_fail(["couplings", "--checkpoint", str(huge),
                        "--dataset", str(pipeline / "ds.ncd"), "--strategy", strategy,
                        "--out", str(tmp_path / "cp"), "--iters", "3", "--frames", "20"],
                       capsys, "NcaError")
        assert "float32 range" in err["message"] and "3.40282e+38" in err["message"]
        assert str(huge) in err["message"] and "0:0:20" in err["message"]
        assert not list((tmp_path / "cp").glob("*.ncc"))

    def test_dimension_mismatch(self, pipeline, tmp_path, capsys):
        other = tmp_path / "wide.ncd"
        run_ok(["synth", "--out", str(other), "--n", "20", "--frames", "40", "--pairs", "1"])
        err = run_fail(
            ["couplings", "--checkpoint", str(pipeline / "ck" / "dae-seed0.ncm"),
             "--dataset", str(other), "--strategy", "student",
             "--out", str(tmp_path / "cp"), "--iters", "3", "--frames", "20"],
            capsys, "CliError")
        assert "16" in err["message"] and "20" in err["message"]


class TestAnalyzeCommand:
    def test_report_has_couplings_and_baseline_cells(self, pipeline):
        report = json.loads((pipeline / "report.json").read_text())
        cells = report["cells"]["dae"]
        assert set(cells) == {"student", "linear", "identity"}
        # two segments -> two records per method, baselines not duplicated
        assert all(cells[m]["n"] == 2 for m in cells)
        assert report["record_count"] == 6

    def test_csv_alongside(self, pipeline):
        lines = (pipeline / "report.csv").read_text().splitlines()
        assert lines[0] == "arch,method,segment,tod_r,snr_model_db,snr_truth_db"
        assert len(lines) == 7

    def test_identity_baseline_scores_differ_from_student(self, pipeline):
        report = json.loads((pipeline / "report.json").read_text())
        cells = report["cells"]["dae"]
        assert (
            cells["identity"]["snr_model_db"]["mean"]
            != cells["student"]["snr_model_db"]["mean"]
        )

    @pytest.mark.parametrize("which", ["dataset", "couplings", "checkpoint", "csv"])
    def test_out_naming_an_input_is_refused(self, pipeline, tmp_path, capsys, which):
        # the report, its CSV or its manifest would replace an input: refused
        # before any file is read or written, naming the path
        ds = pipeline / "ds.ncd"
        ncc = pipeline / "cp" / "dae-seed0-student-0-0.ncc"
        target = {"dataset": ds, "couplings": ncc,
                  "checkpoint": pipeline / "ck" / "dae-seed0.ncm",
                  "csv": tmp_path / "ds.csv"}[which]
        if which == "csv":
            target.write_bytes(ds.read_bytes())
            ds = target
        out = target.with_suffix(".json") if which == "csv" else target
        before = {p: p.read_bytes() for p in (ds, ncc, target, pipeline / "ds.ncd.manifest.json")}
        err = run_fail(["analyze", "--couplings", str(pipeline / "cp" / "*.ncc"),
                        "--checkpoints", str(pipeline / "ck"), "--dataset", str(ds),
                        "--out", str(out)], capsys, "CliError")
        assert err["message"] == \
            f"--out {out} would overwrite {target}, one of the command's inputs"
        assert {p: p.read_bytes() for p in before} == before
        for written in (out.with_suffix(".csv"), pathlib.Path(str(out) + ".manifest.json")):
            assert written in before or not written.exists()

    def test_no_matching_couplings(self, pipeline, tmp_path, capsys):
        run_fail(["analyze", "--couplings", str(tmp_path / "*.ncc"),
                  "--checkpoints", str(pipeline / "ck"),
                  "--dataset", str(pipeline / "ds.ncd"),
                  "--out", str(tmp_path / "r.json")], capsys, "CliError")

    def test_metadata_that_is_not_an_object(self, pipeline, tmp_path, capsys):
        raw = (pipeline / "cp" / "dae-seed0-student-0-0.ncc").read_bytes()
        meta = b"[1,2]"
        crafted = tmp_path / "list.ncc"
        crafted.write_bytes(raw[: 12 + 8 * 16 * 16] + len(meta).to_bytes(4, "little") + meta)
        err = run_fail(["analyze", "--couplings", str(crafted),
                        "--checkpoints", str(pipeline / "ck"),
                        "--dataset", str(pipeline / "ds.ncd"),
                        "--out", str(tmp_path / "r.json")], capsys, "FormatError")
        assert "not a JSON object" in err["message"]

    @pytest.mark.parametrize("key", ["checkpoint", "segment", "strategy"])
    def test_metadata_value_that_is_not_a_string(self, pipeline, tmp_path, capsys, key):
        c, meta = load_couplings(pipeline / "cp" / "dae-seed0-student-0-0.ncc")
        crafted = tmp_path / "typed.ncc"
        save_couplings(crafted, c, {**meta, key: 5})
        err = run_fail(["analyze", "--couplings", str(crafted),
                        "--checkpoints", str(pipeline / "ck"),
                        "--dataset", str(pipeline / "ds.ncd"),
                        "--out", str(tmp_path / "r.json")], capsys, "FormatError")
        assert f"'{key}' is not a string" in err["message"]

    @pytest.mark.parametrize("label", ["identity", "linear"])
    def test_strategy_named_after_a_baseline(self, pipeline, tmp_path, capsys, label):
        c, meta = load_couplings(pipeline / "cp" / "dae-seed0-student-0-0.ncc")
        crafted = tmp_path / "baseline.ncc"
        save_couplings(crafted, c, {**meta, "strategy": label})
        err = run_fail(["analyze", "--couplings", str(crafted),
                        "--checkpoints", str(pipeline / "ck"),
                        "--dataset", str(pipeline / "ds.ncd"),
                        "--out", str(tmp_path / "r.json")], capsys, "FormatError")
        assert label in err["message"]
        assert not (tmp_path / "r.json").exists()

    def test_overflow_is_an_error_not_a_report(self, pipeline, tmp_path, capsys):
        # finite weights whose products overflow used to give a report with
        # NaN scores (not valid JSON), exit 0 and warning lines on stderr
        ck_dir = tmp_path / "ck"
        huge = huge_checkpoint(pipeline, ck_dir, 1e160, 0.0)
        c, meta = load_couplings(pipeline / "cp" / "dae-seed0-student-0-0.ncc")
        crafted = tmp_path / "c.ncc"
        save_couplings(crafted, c, {**meta, "checkpoint": serial.sha256_file(huge)})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = run_fail(["analyze", "--couplings", str(crafted),
                            "--checkpoints", str(ck_dir),
                            "--dataset", str(pipeline / "ds.ncd"),
                            "--out", str(tmp_path / "r.json")], capsys, "FloatingPointError")
        assert "overflow" in err["message"]
        assert str(huge) in err["message"]
        assert not caught
        assert not (tmp_path / "r.json").exists()

    def test_overflow_in_a_segment_names_it(self, pipeline, tmp_path, capsys):
        # the weight product stays finite; only the model run overflows
        ck_dir = tmp_path / "ck"
        huge = huge_checkpoint(pipeline, ck_dir, 1e10, 1e300)
        c, meta = load_couplings(pipeline / "cp" / "dae-seed0-student-0-20.ncc")
        crafted = tmp_path / "c.ncc"
        save_couplings(crafted, c, {**meta, "checkpoint": serial.sha256_file(huge)})
        err = run_fail(["analyze", "--couplings", str(crafted), "--checkpoints", str(ck_dir),
                        "--dataset", str(pipeline / "ds.ncd"),
                        "--out", str(tmp_path / "r.json")], capsys, "FloatingPointError")
        assert str(huge) in err["message"] and "0:20:40" in err["message"]
        assert not (tmp_path / "r.json").exists()

    @staticmethod
    def two_by_two(pipeline, tmp_path):
        """Couplings of both checkpoints x both strategies x both segments."""
        for strategy in ("student", "compositional"):
            run_ok(["couplings", "--checkpoint", str(pipeline / "ck" / "dae-seed*.ncm"),
                    "--dataset", str(pipeline / "ds.ncd"), "--strategy", strategy,
                    "--out", str(tmp_path / "cp"), "--iters", "3", "--frames", "20"])
        return ["analyze", "--couplings", str(tmp_path / "cp" / "*.ncc"),
                "--checkpoints", str(pipeline / "ck"), "--dataset", str(pipeline / "ds.ncd"),
                "--out", str(tmp_path / "report.json")]

    @pytest.mark.parametrize("frames, warned", [(10, True), (20, False)])
    def test_short_windows_warn_once(self, pipeline, tmp_path, caplog, frames, warned):
        # n = 16: 10-frame windows leave C undetermined by the loss, 20 do not
        run_ok(["couplings", "--checkpoint", str(pipeline / "ck" / "dae-seed*.ncm"),
                "--dataset", str(pipeline / "ds.ncd"), "--strategy", "student",
                "--out", str(tmp_path / "cp"), "--iters", "3", "--frames", str(frames)])
        argv = ["analyze", "--couplings", str(tmp_path / "cp" / "*.ncc"),
                "--checkpoints", str(pipeline / "ck"), "--dataset", str(pipeline / "ds.ncd"),
                "--out", str(tmp_path / "report.json")]
        with caplog.at_level("WARNING"):
            run_ok(argv)
        warnings_seen = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        want = ["analyze: 4 of 4 scored segments hold fewer frames than the 16 bins, so "
                "their loss does not determine their couplings matrix"]
        assert warnings_seen == (want if warned else [])

    def test_silent_target_window_leaves_its_snr_blank(self, pipeline, tmp_path, caplog):
        # an instrumental passage: the target of the first 20-frame window is
        # all zero, so its truth SNR is undefined, and the report still goes
        ds = make_synthetic_dataset(16, 40, 1, 0)
        ds.pairs[0][1].mags[:, :20] = 0.0
        save_dataset(ds, tmp_path / "ds.ncd")
        ck = pipeline / "ck" / "dae-seed0.ncm"
        run_ok(["couplings", "--checkpoint", str(ck), "--dataset", str(tmp_path / "ds.ncd"),
                "--strategy", "student", "--out", str(tmp_path / "cp"), "--iters", "3",
                "--frames", "20"])
        with caplog.at_level("WARNING"):
            run_ok(["analyze", "--couplings", str(tmp_path / "cp" / "*.ncc"),
                    "--checkpoints", str(pipeline / "ck"), "--dataset", str(tmp_path / "ds.ncd"),
                    "--out", str(tmp_path / "report.json")])
        rows = (tmp_path / "report.csv").read_text().splitlines()[1:]
        assert len(rows) == 6  # student, linear and identity on two windows
        for row in rows:
            *_, snr_model, snr_truth = row.split(",")
            assert snr_model != "" and (snr_truth == "") == (",0:0:20," in row)
        report = json.loads((tmp_path / "report.json").read_text())
        for cell in report["cells"]["dae"].values():
            assert cell["n"] == 2 and cell["snr_truth_db"]["std"] == 0.0
        warnings_seen = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert "SNR undefined for 3 of 6 records: their reference is all zero" in warnings_seen

    def test_one_load_per_checkpoint_one_forward_per_segment(
        self, pipeline, tmp_path, monkeypatch
    ):
        argv = self.two_by_two(pipeline, tmp_path)
        loads, runs, cuts = [], [], []
        monkeypatch.setattr(cli, "load_checkpoint",
                            lambda path: loads.append(str(path)) or load_checkpoint(path))
        # a model is keyed by its weights, not id(): each one is freed before
        # the next loads, so two models can share an address
        monkeypatch.setattr(analysis, "forward",
                            lambda params, x: runs.append((params.layers[0][0].tobytes(),
                                                           x.tobytes()))
                            or forward(params, x))
        monkeypatch.setattr(cli, "normalized_window",
                            lambda ds, *bounds: cuts.append(bounds)
                            or normalized_window(ds, *bounds))
        run_ok(argv)
        assert sorted(loads) == [str(pipeline / "ck" / f"dae-seed{s}.ncm") for s in (0, 1)]
        assert len(runs) == len(set(runs)) == 2 * 2
        assert sorted(cuts) == [(0, 0, 20), (0, 20, 40)]  # once per distinct segment
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["record_count"] == 2 * 2 * (2 + 2)

    def test_report_matches_the_per_file_loop(self, pipeline, tmp_path):
        # the loop analyze used to run: one checkpoint load and one model run
        # per couplings file, the baselines scored with the first file of
        # each (checkpoint, segment)
        argv = self.two_by_two(pipeline, tmp_path)
        run_ok(argv)
        ck_dir = pipeline / "ck"
        by_hash = {serial.sha256_file(p): p for p in sorted(ck_dir.glob("*.ncm"))}
        ds = load_dataset(pipeline / "ds.ncd")
        records, baseline_done = [], set()
        for c_path in sorted(glob.glob(str(tmp_path / "cp" / "*.ncc"))):
            c, meta = load_couplings(c_path)
            params = load_checkpoint(by_hash[meta["checkpoint"]]).params
            seg = meta["segment"]
            x_mix, x_true = normalized_window(ds, *parse_segment_id(seg))
            records += evaluate_segment(params, x_mix, x_true, [(meta["strategy"], c)], seg)
            if (meta["checkpoint"], seg) not in baseline_done:
                baseline_done.add((meta["checkpoint"], seg))
                for baseline in (("linear", linear_composition(params)),
                                 ("identity", None)):
                    records += evaluate_segment(params, x_mix, x_true, [baseline], seg)
        serial.write_json(tmp_path / "loop.json", aggregate(records))
        write_report_csv(records, tmp_path / "loop.csv")
        for suffix in (".json", ".csv"):
            assert (tmp_path / f"report{suffix}").read_bytes() == \
                (tmp_path / f"loop{suffix}").read_bytes()

    def test_each_matrix_is_read_once(self, pipeline, tmp_path, monkeypatch):
        argv = self.two_by_two(pipeline, tmp_path)
        reads = []
        monkeypatch.setattr(cli, "load_couplings",
                            lambda path, **kw: reads.append((str(path), kw.get("matrix", True)))
                            or load_couplings(path, **kw))
        run_ok(argv)
        files = sorted(glob.glob(str(tmp_path / "cp" / "*.ncc")))
        assert len(files) == 2 * 2 * 2
        assert sorted(path for path, matrix in reads if matrix) == files
        assert sorted(path for path, matrix in reads if not matrix) == files

    def test_non_finite_matrix_is_a_format_error(self, pipeline, tmp_path, capsys):
        raw = bytearray((pipeline / "cp" / "dae-seed0-student-0-0.ncc").read_bytes())
        raw[12:20] = np.array([np.nan], dtype="<f8").tobytes()
        crafted = tmp_path / "nan.ncc"
        crafted.write_bytes(bytes(raw))
        err = run_fail(["analyze", "--couplings", str(crafted),
                        "--checkpoints", str(pipeline / "ck"),
                        "--dataset", str(pipeline / "ds.ncd"),
                        "--out", str(tmp_path / "r.json")], capsys, "FormatError")
        assert "non-finite" in err["message"]
        assert not (tmp_path / "r.json").exists()

    def test_report_under_a_missing_directory(self, pipeline, tmp_path):
        out = tmp_path / "new" / "r.json"
        run_ok(["analyze", "--couplings", str(pipeline / "cp" / "*.ncc"),
                "--checkpoints", str(pipeline / "ck"), "--dataset", str(pipeline / "ds.ncd"),
                "--out", str(out)])
        assert out.read_bytes() == (pipeline / "report.json").read_bytes()
        assert sorted(p.name for p in out.parent.iterdir()) == [
            "r.csv", "r.json", "r.json.manifest.json"]

    def test_dataset_is_freed_before_scoring(self, pipeline, tmp_path, monkeypatch):
        argv = self.two_by_two(pipeline, tmp_path)
        datasets, scored = [], []

        def loading(path):
            ds = load_dataset(path)
            datasets.append(weakref.ref(ds))
            return ds

        def scoring(*args):
            assert len(datasets) == 1 and datasets[0]() is None
            scored.append(args[-1])
            return evaluate_segment(*args)

        monkeypatch.setattr(cli, "load_dataset", loading)
        monkeypatch.setattr(cli, "evaluate_segment", scoring)
        run_ok(argv)
        assert len(scored) == 2 * 2

    def test_one_model_is_held_at_a_time(self, pipeline, tmp_path, monkeypatch):
        argv = self.two_by_two(pipeline, tmp_path)
        models = []

        def loading_model(path):
            assert all(ref() is None for ref in models)
            ck = load_checkpoint(path)
            models.append(weakref.ref(ck.params))
            return ck

        monkeypatch.setattr(cli, "load_checkpoint", loading_model)
        run_ok(argv)
        assert len(models) == 2

    def test_each_input_is_hashed_once(self, pipeline, tmp_path, monkeypatch):
        argv = self.two_by_two(pipeline, tmp_path)
        hashed = []
        sha256_file = serial.sha256_file
        monkeypatch.setattr(serial, "sha256_file",
                            lambda path: hashed.append(str(path)) or sha256_file(path))
        run_ok(argv)
        inputs = sorted(glob.glob(str(tmp_path / "cp" / "*.ncc")))
        inputs += [str(pipeline / "ck" / f"dae-seed{s}.ncm") for s in (0, 1)]
        inputs.append(str(pipeline / "ds.ncd"))
        assert [hashed.count(p) for p in inputs] == [1] * (2 * 2 * 2 + 2 + 1)
        assert len(hashed) == len(set(hashed))  # and each output once

    def test_dimension_mismatch_fails_before_any_load(self, pipeline, tmp_path, capsys,
                                                       monkeypatch):
        other = tmp_path / "wide.ncd"
        run_ok(["synth", "--out", str(other), "--n", "20", "--frames", "40", "--pairs", "1"])
        loads = []
        monkeypatch.setattr(cli, "load_checkpoint",
                            lambda path: loads.append(path) or load_checkpoint(path))
        err = run_fail(["analyze", "--couplings", str(pipeline / "cp" / "*.ncc"),
                        "--checkpoints", str(pipeline / "ck"), "--dataset", str(other),
                        "--out", str(tmp_path / "r.json")], capsys, "CliError")
        assert str(pipeline / "ck" / "dae-seed0.ncm") in err["message"]
        assert "16" in err["message"] and "20" in err["message"]
        assert loads == []
        assert not (tmp_path / "r.json").exists()

    def test_out_ending_in_csv_fails_before_any_read(self, pipeline, tmp_path, capsys,
                                                      monkeypatch):
        # the CSV report goes to --out with the suffix .csv, so it would
        # overwrite a JSON report written there
        monkeypatch.setattr(serial, "sha256_file", lambda path: pytest.fail(f"hashed {path}"))
        err = run_fail(["analyze", "--couplings", str(pipeline / "cp" / "*.ncc"),
                        "--checkpoints", str(pipeline / "ck"),
                        "--dataset", str(pipeline / "ds.ncd"),
                        "--out", str(tmp_path / "r.csv")], capsys, "CliError")
        assert "r.csv" in err["message"]
        assert list(tmp_path.iterdir()) == []

    def test_segment_outside_the_dataset_fails_before_any_load(self, pipeline, tmp_path,
                                                               capsys, monkeypatch):
        c, meta = load_couplings(pipeline / "cp" / "dae-seed0-student-0-0.ncc")
        crafted = tmp_path / "far.ncc"
        save_couplings(crafted, c, {**meta, "segment": "3:0:20"})
        loads = []
        monkeypatch.setattr(cli, "load_checkpoint",
                            lambda path: loads.append(path) or load_checkpoint(path))
        err = run_fail(["analyze", "--couplings", str(crafted),
                        "--checkpoints", str(pipeline / "ck"),
                        "--dataset", str(pipeline / "ds.ncd"),
                        "--out", str(tmp_path / "r.json")], capsys, "ValueError")
        assert "pair index 3 out of range" in err["message"]
        assert loads == []
        assert not (tmp_path / "r.json").exists()

    def test_checkpoint_hash_must_match(self, pipeline, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        run_fail(["analyze", "--couplings", str(pipeline / "cp" / "*.ncc"),
                  "--checkpoints", str(empty),
                  "--dataset", str(pipeline / "ds.ncd"),
                  "--out", str(tmp_path / "r.json")], capsys, "CliError")


class TestHeatmapCommand:
    def test_png_row_normalize(self, pipeline, tmp_path, parse_png):
        out = tmp_path / "c.png"
        run_ok(["heatmap", "--couplings",
                str(pipeline / "cp" / "dae-seed0-student-0-0.ncc"), "--out", str(out),
                "--row-normalize"])
        pixels = parse_png(out.read_bytes())
        assert pixels.shape == (16, 16)
        # every row of a fitted C has a nonzero entry, so each scales to 255
        assert (pixels.max(axis=1) == 255).all()

    def test_non_finite_couplings_rejected(self, pipeline, tmp_path, capsys):
        raw = bytearray((pipeline / "cp" / "dae-seed0-student-0-0.ncc").read_bytes())
        raw[12:20] = np.array([np.nan], dtype="<f8").tobytes()
        crafted = tmp_path / "nan.ncc"
        crafted.write_bytes(bytes(raw))
        out = tmp_path / "c.png"
        run_fail(["heatmap", "--couplings", str(crafted), "--out", str(out)],
                 capsys, "FormatError")
        assert not out.exists()

    def test_missing_output_directory_is_created(self, pipeline, tmp_path, parse_png):
        out = tmp_path / "new" / "c.png"
        run_ok(["heatmap", "--couplings",
                str(pipeline / "cp" / "dae-seed0-student-0-0.ncc"), "--out", str(out)])
        assert parse_png(out.read_bytes()).shape == (16, 16)
        assert (tmp_path / "new" / "c.png.manifest.json").exists()

    @pytest.mark.parametrize("name", ["c.pgm", "c.jpg", "c.PNG", "c"])
    def test_unknown_suffix_rejected(self, pipeline, tmp_path, capsys, name):
        err = run_fail(["heatmap", "--couplings",
                        str(pipeline / "cp" / "dae-seed0-student-0-0.ncc"),
                        "--out", str(tmp_path / name)], capsys, "ValueError")
        assert err["message"].endswith("must end in .png")
        assert list(tmp_path.iterdir()) == []


class TestIngestCommand:
    def build_wavs(self, tmp_path, wav_builder, tracks=("alpha", "beta")):
        rng = np.random.default_rng(0)
        d = tmp_path / "wavs"
        d.mkdir()
        for track in tracks:
            for kind in ("mix", "vox"):
                sig = (rng.normal(0, 0.2, size=(200, 1)) * 32767).astype(np.int64)
                (d / f"{track}.{kind}.wav").write_bytes(wav_builder(8000, sig, 16, 1))
        return d

    def ingest_args(self, d, out):
        return ["ingest", "--input", str(d), "--out", str(out),
                "--window", "32", "--hop", "16", "--fft", "32"]

    def test_builds_dataset_from_wav_pairs(self, tmp_path, wav_builder):
        d = self.build_wavs(tmp_path, wav_builder)
        out = tmp_path / "ing.ncd"
        run_ok(self.ingest_args(d, out))
        ds = load_dataset(out)
        assert ds.config.bins_kept == 17 and ds.config.sample_rate == 8000
        assert ds.ids == ["alpha", "beta"]
        # 200 samples, window 32, hop 16 -> 11 frames
        assert ds.pairs[0][0].frames == 11

    def test_dataset_under_a_missing_directory(self, tmp_path, wav_builder):
        d = self.build_wavs(tmp_path, wav_builder)
        out = tmp_path / "new" / "ing.ncd"
        run_ok(self.ingest_args(d, out))
        assert load_dataset(out).config.bins_kept == 17
        assert (tmp_path / "new" / "ing.ncd.manifest.json").exists()

    def test_unpaired_track_rejected(self, tmp_path, wav_builder, capsys):
        d = self.build_wavs(tmp_path, wav_builder)
        (d / "gamma.mix.wav").write_bytes(
            wav_builder(8000, np.zeros((64, 1)), 16, 1)
        )
        err = run_fail(self.ingest_args(d, tmp_path / "x.ncd"), capsys, "CliError")
        assert "gamma" in err["message"]

    def test_empty_directory_rejected(self, tmp_path, capsys):
        d = tmp_path / "empty"
        d.mkdir()
        run_fail(self.ingest_args(d, tmp_path / "x.ncd"), capsys, "CliError")

    def test_missing_directory_rejected(self, tmp_path, capsys):
        run_fail(self.ingest_args(tmp_path / "gone", tmp_path / "x.ncd"),
                 capsys, "CliError")

    def test_wrong_rate_rejected(self, tmp_path, wav_builder, capsys):
        # alpha, read first, sets the rate at 8000; beta's mixture is at 22050
        d = self.build_wavs(tmp_path, wav_builder)
        (d / "beta.mix.wav").write_bytes(wav_builder(22050, np.zeros((200, 1)), 16, 1))
        out = tmp_path / "x.ncd"
        err = run_fail(self.ingest_args(d, out), capsys, "WavError")
        assert "beta.mix.wav" in err["message"]
        assert "22050" in err["message"] and "8000" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--window", "--hop", "--fft"])
    def test_bad_flags_fail_before_any_file_is_read(self, tmp_path, wav_builder, capsys,
                                                    monkeypatch, flag):
        d = self.build_wavs(tmp_path, wav_builder)
        monkeypatch.setattr(cli, "load_wav_mono", lambda path: pytest.fail(f"read {path}"))
        args = self.ingest_args(d, tmp_path / "x.ncd")
        args[args.index(flag) + 1] = "0"
        run_fail(args, capsys, "ValueError")
        assert not (tmp_path / "x.ncd").exists()

    def test_rate_comes_from_the_files(self, tmp_path, wav_builder):
        d = tmp_path / "wavs"
        d.mkdir()
        for kind in ("mix", "vox"):
            (d / f"one.{kind}.wav").write_bytes(wav_builder(22050, np.zeros((200, 1)), 16, 1))
        out = tmp_path / "x.ncd"
        run_ok(self.ingest_args(d, out))
        assert load_dataset(out).config.sample_rate == 22050
        manifest = json.loads((tmp_path / "x.ncd.manifest.json").read_text())
        assert "sr" not in manifest["flags"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_float_sample_rejected(self, tmp_path, wav_builder, capsys, bad):
        d = self.build_wavs(tmp_path, wav_builder)
        sig = np.full((200, 1), 0.1)
        sig[57, 0] = bad
        (d / "alpha.mix.wav").write_bytes(wav_builder(8000, sig, 32, 3))
        out = tmp_path / "x.ncd"
        err = run_fail(self.ingest_args(d, out), capsys, "WavError")
        assert "alpha.mix.wav" in err["message"]
        assert not out.exists()

    def test_ten_seconds_at_fft_128_ingests_quickly(self, tmp_path, wav_builder):
        # ten seconds per track at 8 kHz; the whole ingest stays far under
        # the five-second budget this tool is specified against
        rng = np.random.default_rng(1)
        d = tmp_path / "wavs"
        d.mkdir()
        for kind in ("mix", "vox"):
            sig = (rng.normal(0, 0.2, size=(80000, 1)) * 32767).astype(np.int64)
            (d / f"long.{kind}.wav").write_bytes(wav_builder(8000, sig, 16, 1))
        out = tmp_path / "long.ncd"
        t0 = time.perf_counter()
        run_ok(["ingest", "--input", str(d), "--out", str(out),
                "--window", "128", "--hop", "32", "--fft", "128"])
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        ds = load_dataset(out)
        assert ds.config.bins_kept == 65
        assert ds.pairs[0][0].frames == 1 + (80000 - 128) // 32
