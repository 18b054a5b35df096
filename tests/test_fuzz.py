"""Seeded byte-mutation fuzzing of the file loaders and of the CLI commands
that read their files.

Every mutated file either loads or makes its loader raise FormatError (for
a WAV file, which comes from outside the program, WavError or another error
the CLI reports as its one-line JSON error), and no load allocates much more
than the file holds. Every CLI run on mutated input exits 0, or exits 1 with
the one-line JSON error on stderr; no other exception escapes `main`, and
nothing warns. The mutations are drawn from fixed seeds, so a failure names
a reproducible case.
"""

from __future__ import annotations

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from neural_couplings import serial
from neural_couplings.cli import _KNOWN_ERRORS, main
from neural_couplings.linalg import make_rng
from neural_couplings.models import init_params, load_checkpoint, save_checkpoint
from neural_couplings.nca import load_couplings, run_nca, save_couplings
from neural_couplings.spectral import (
    load_dataset,
    load_wav_mono,
    normalized_window,
    save_dataset,
)
from neural_couplings.synth import make_synthetic_dataset

N_BINS = 16
FRAMES = 24
WINDOW = 12
EDGE_U32 = (0, 1, 2, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)


def mutate(raw: bytes, rng: np.random.Generator) -> bytes:
    """One random edit. Half of the edits land in the first or last 64 bytes,
    where the headers, sizes, strings and metadata of these formats sit."""
    b = bytearray(raw)
    if rng.random() < 0.5:
        i = int(rng.integers(len(b)))
    else:
        edge = int(rng.integers(min(64, len(b))))
        i = edge if rng.random() < 0.5 else len(b) - 1 - edge
    kind = int(rng.integers(6))
    if kind == 0:
        b[i] ^= 1 << int(rng.integers(8))
    elif kind == 1:
        b[i] = int(rng.choice([0x00, 0x01, 0x7F, 0x80, 0xC3, 0xFF]))
    elif kind == 2:
        b[i : i + 4] = int(rng.choice(EDGE_U32)).to_bytes(4, "little")
    elif kind == 3:
        del b[i:]
    elif kind == 4:
        b.insert(i, int(rng.integers(256)))
    else:
        del b[i]
    return bytes(b)


@pytest.fixture(scope="module")
def files(tmp_path_factory, wav_builder):
    """One valid file of each format, tied together: the couplings file
    names the checkpoint's hash and a segment of the dataset. The WAV file
    is 16-bit stereo."""
    root = tmp_path_factory.mktemp("fuzz")
    stereo = np.random.default_rng(0).integers(-30000, 30000, size=(64, 2))
    (root / "s.wav").write_bytes(wav_builder(8000, stereo, 16, 1))
    ds = make_synthetic_dataset(N_BINS, FRAMES, 2, 0)
    save_dataset(ds, root / "ds.ncd")
    params = init_params("dae", N_BINS, make_rng(0))
    (root / "ck").mkdir()
    save_checkpoint(root / "ck" / "dae-seed0.ncm", params, 0, 1)
    x_mix, _ = normalized_window(ds, 0, 0, WINDOW)
    state = run_nca(params, x_mix, "student", 2, 4e-4, 0)
    meta = {
        "strategy": "student",
        "arch": "dae",
        "checkpoint": serial.sha256_file(root / "ck" / "dae-seed0.ncm"),
        "segment": f"0:0:{WINDOW}",
        "final_loss": state.losses[-1],
    }
    save_couplings(root / "c.ncc", state.c, meta)
    return root


# format -> (loader, file, the errors a mutant may raise)
LOADERS = {
    "ncd": (load_dataset, "ds.ncd", serial.FormatError),
    "ncm": (load_checkpoint, "ck/dae-seed0.ncm", serial.FormatError),
    "ncc": (load_couplings, "c.ncc", serial.FormatError),
    "wav": (load_wav_mono, "s.wav", _KNOWN_ERRORS),
}


@pytest.mark.parametrize("fmt", sorted(LOADERS))
def test_loaders_raise_only_format_errors(files, tmp_path, fmt):
    loader, name, allowed = LOADERS[fmt]
    raw = (files / name).read_bytes()
    loader(files / name)  # the unmutated file loads
    rng = np.random.default_rng([ord(ch) for ch in fmt])
    path = tmp_path / f"m.{fmt}"
    tracemalloc.start()
    try:
        for case in range(300):
            path.write_bytes(mutate(raw, rng))
            try:
                loader(path)
            except allowed:
                pass
            except Exception as e:  # reported with the case that raised it
                pytest.fail(f"{fmt} case {case}: {type(e).__name__}: {e}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * len(raw) + 2**20


def _run_cli(argv, capsys, what):
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    except Exception as e:  # reported with the case that raised it
        pytest.fail(f"{what}: {type(e).__name__} escaped main: {e}")
    # a warning is one more stderr line outside the test harness
    assert not caught, f"{what}: warned {caught[0].message}"
    err = capsys.readouterr().err
    assert code in (0, 1), what
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1, f"{what}: stderr is not one line: {err!r}"
        line = json.loads(lines[0])
        assert set(line) == {"command", "error", "message"}, what
        assert line["command"] == argv[0], what
    return code


@pytest.mark.parametrize(
    "command, target",
    [("couplings", "ncm"), ("couplings", "ncd"), ("analyze", "ncc"),
     ("analyze", "ncm"), ("analyze", "ncd"), ("heatmap", "ncc")],
)
def test_cli_reports_mutated_input_as_one_json_line(files, tmp_path, capsys, command, target):
    ds, ck, cc = tmp_path / "ds.ncd", tmp_path / "ck" / "dae-seed0.ncm", tmp_path / "c.ncc"
    ck.parent.mkdir()
    for path in (ds, ck, cc):
        path.write_bytes((files / path.relative_to(tmp_path)).read_bytes())
    argv = {
        "couplings": ["couplings", "--checkpoint", str(ck), "--dataset", str(ds),
                      "--strategy", "compositional", "--iters", "2",
                      "--frames", str(WINDOW), "--out", str(tmp_path / "out")],
        "analyze": ["analyze", "--couplings", str(cc), "--checkpoints", str(ck.parent),
                    "--dataset", str(ds), "--out", str(tmp_path / "r.json")],
        "heatmap": ["heatmap", "--couplings", str(cc), "--out", str(tmp_path / "h.png")],
    }[command]
    assert _run_cli(argv, capsys, f"{command} unmutated") == 0
    path = {"ncd": ds, "ncm": ck, "ncc": cc}[target]
    raw = path.read_bytes()
    c, meta = load_couplings(cc)
    rng = np.random.default_rng([ord(ch) for ch in command + target])
    failures = 0
    for case in range(40):
        path.write_bytes(mutate(raw, rng))
        if command == "analyze" and target == "ncm":
            # analyze finds a checkpoint by its hash, so point the couplings
            # file at the mutated one
            save_couplings(cc, c, {**meta, "checkpoint": serial.sha256_file(ck)})
        failures += _run_cli(argv, capsys, f"{command} {target} case {case}")
    assert failures > 0  # the mutations reach the loaders' checks
