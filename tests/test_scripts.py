"""Smoke tests of the measurement scripts: each runs as documented and prints
every field it promises as a finite positive number. No value is pinned, so
a code change moves none of these tests; a script that stops running, or a
field that goes missing or stops parsing, fails them. artifact_digests.sh,
which desk_identity.sh compares runs with, is checked line for line against
hashlib on a small directory it is given."""

import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def run_bash(*args, cwd=None):
    # this interpreter's directory first on the path, so the script's python3
    # is the suite's own
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, [str(Path(sys.executable).parent),
                                                env.get("PATH")]))
    return subprocess.run(["bash", *args], env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=120)


def run_script(name, *args):
    done = run_bash(str(REPO / "scripts" / name), *args)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_every_script_parses():
    scripts = sorted((REPO / "scripts").glob("*.sh"))
    assert scripts
    for script in scripts:
        done = run_bash("-n", str(script))
        assert done.returncode == 0, f"{script.name}: {done.stderr}"


def test_desk_identity_without_a_revision_prints_its_usage(tmp_path):
    done = run_bash(str(REPO / "scripts" / "desk_identity.sh"), cwd=tmp_path)
    assert done.returncode != 0
    assert "usage: desk_identity.sh <parent-rev>" in done.stderr
    assert list(tmp_path.iterdir()) == []


def test_bench_pairs_refuses_one_pair_before_copying(tmp_path):
    # the check comes before the repository is even looked up, so it holds
    # in a directory that is no checkout
    done = run_bash(str(REPO / "scripts" / "bench_pairs.sh"), "HEAD", "desk", "1", cwd=tmp_path)
    assert done.returncode == 2
    assert "quartiles need at least 2 pairs" in done.stderr
    assert list(tmp_path.iterdir()) == []


def positive(text):
    value = float(text)
    assert math.isfinite(value) and value > 0.0, text
    return value


def test_size_report_prints_lines_and_options():
    lines = run_script("size_report.sh")
    assert [line.split()[0] for line in lines] == ["src_lines", "tests_lines", "options"]
    positive(lines[0].split()[1])
    positive(lines[1].split()[1])
    total, parts = re.fullmatch(r"options (\d+) \((.*)\)", lines[2]).groups()
    counts = dict(part.rsplit(" ", 1) for part in parts.split(" + "))
    assert set(counts) == {"CLI flags", "TrainConfig", "NcaConfig", "StftConfig",
                           "export_heatmap keyword"}
    assert positive(total) == sum(positive(v) for v in counts.values())


def test_peak_rss_prints_every_command(tmp_path):
    lines = run_script("peak_rss.sh", "16", str(tmp_path))
    assert lines[0] == "n=16: peak RSS above import"
    rows = [re.fullmatch(r"(.+?) +(\S+) MiB", line).groups() for line in lines[1:]]
    assert [label for label, _ in rows] == ["synth", "train", "couplings student",
                                            "couplings compositional", "analyze"]
    for _, value in rows:
        positive(value)


def test_artifact_digests_lists_every_file_but_the_manifests(tmp_path):
    files = {"b.ncd": b"dataset", "ck/a.ncm": b"model", "ck/deep/c.csv": b"x,y\n"}
    for rel, data in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_bytes(data)
    (tmp_path / "ck" / "train-dae.manifest.json").write_text("{}")
    want = [f"{hashlib.sha256(files[rel]).hexdigest()}  {rel}" for rel in sorted(files)]
    assert run_script("artifact_digests.sh", str(tmp_path)) == want
