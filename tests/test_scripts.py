"""Smoke tests of the measurement scripts: each runs as documented and prints
every field it promises as a finite positive number. No value is pinned, so
a code change moves none of these tests; a script that stops running, or a
field that goes missing or stops parsing, fails them."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    # this interpreter's directory first on the path, so the script's python3
    # is the suite's own
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, [str(Path(sys.executable).parent),
                                                env.get("PATH")]))
    done = subprocess.run(["bash", str(REPO / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


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
