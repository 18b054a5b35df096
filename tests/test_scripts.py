"""Smoke tests of the measurement scripts: each runs as documented and prints
every field it promises as a finite positive number. No value is pinned, so
a code change moves none of these tests; a script that stops running, or a
field that goes missing or stops parsing, fails them. artifact_digests.sh,
which desk_identity.sh compares runs with, is checked line for line against
hashlib on a small directory it is given, and pairs_summary.py, which gives
bench_pairs.sh its verdicts, on canned result lines."""

import hashlib
import json
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
    assert set(counts) == {"CLI flags", "StftConfig", "export_heatmap keyword"}
    assert positive(total) == sum(positive(v) for v in counts.values())


def test_peak_rss_prints_every_command(tmp_path):
    lines = run_script("peak_rss.sh", "16", str(tmp_path))
    assert lines[0] == "n=16: peak RSS above import"
    rows = [re.fullmatch(r"(.+?) +(\S+) MiB", line).groups() for line in lines[1:]]
    assert [label for label, _ in rows] == ["synth", "train", "train 7 seeds",
                                            "couplings student", "couplings compositional",
                                            "analyze"]
    for _, value in rows:
        positive(value)
    # the 7-seed files are not left in out-dir
    assert sorted(p.name for p in (tmp_path / "checkpoints").glob("*.ncm")) == [
        "mss-dae-seed0.ncm"]


def test_pairs_summary_gives_each_metric_its_verdict(tmp_path):
    # canned result lines of 10 pairs: a clear gain; a change that wins
    # every pair by less than the parent's spread; a median past its bound;
    # a spread wider than the bound; and no change at all
    bound = {"gain": 0.24, "small": 0.24, "worse": 0.1, "unresolved": 0.1, "same": 0.24}
    better = {"gain": "higher", "small": "higher", "worse": "lower", "unresolved": "lower",
              "same": "higher"}
    parent = {"gain": lambda i: 100.0 + i, "small": lambda i: 100.0 + i,
              "worse": lambda i: 10.0, "unresolved": lambda i: 5.0 + 10 * (i % 2),
              "same": lambda i: 1.0}
    change = {"gain": lambda i: 120.0 + i, "small": lambda i: 101.0 + i,
              "worse": lambda i: 11.5, "unresolved": lambda i: 5.0 + 10 * (i % 2),
              "same": lambda i: 1.0}
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": [
        {"name": k, "unit": "u", "better": better[k], "bound": bound[k]} for k in bound]}))
    for side, values in (("parent", parent), ("change", change)):
        for i in range(10):
            metrics = {k: {"value": f(i), "unit": "u"} for k, f in values.items()}
            (tmp_path / f"{side}-{i}.json").write_text(json.dumps({"metrics": metrics}))
    done = subprocess.run([sys.executable, str(REPO / "scripts" / "pairs_summary.py"),
                           str(bench), str(tmp_path), "10", "train", "3"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "train seed 3, 10 pairs; median [q1, q3] per side"
    rows = {line.split()[0]: line.split() for line in lines[2:]}
    assert {k: (row[-2], row[-1]) for k, row in rows.items()} == {
        "gain": ("10/10", "gain"), "small": ("10/10", "same"), "worse": ("0/10", "worse"),
        "unresolved": ("0/10", "unresolved"), "same": ("0/10", "same")}
    assert rows["gain"][2:8] == ["104.5", "[102.25,", "106.75]", "124.5", "[122.25,", "126.75]"]


def test_artifact_digests_lists_every_file_but_the_manifests(tmp_path):
    files = {"b.ncd": b"dataset", "ck/a.ncm": b"model", "ck/deep/c.csv": b"x,y\n"}
    for rel, data in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_bytes(data)
    (tmp_path / "ck" / "train-dae.manifest.json").write_text("{}")
    want = [f"{hashlib.sha256(files[rel]).hexdigest()}  {rel}" for rel in sorted(files)]
    assert run_script("artifact_digests.sh", str(tmp_path)) == want
