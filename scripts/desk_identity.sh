#!/usr/bin/env bash
# Byte-identity check of the desk-scale pipeline against an earlier revision:
#
#   scripts/desk_identity.sh <parent-rev>
#
# Extracts <parent-rev> with `git archive` into .perfbench_work/identity-<pid>/
# and runs each tree's own scripts/desk_scale.sh there, with BLAS pinned to
# one thread and PYTHONPATH set to that tree's src/ so each run imports its
# own package. Each tree's scripts/peak_rss.sh then runs the pipeline once
# more at n=257, a width whose matrices overflow L2, with its output
# discarded. For both widths it compares the two runs'
# scripts/artifact_digests.sh listings, and every *.manifest.json with
# wall_clock_s dropped. If any differ, the exit status is 1 and it prints
# one line per artifact kind, counted over both widths,
#
#   changed <kind> <k>/<total>
#
# for the kinds .ncd, .ncm, history.csv, .ncc, loss.csv, report, heatmap and
# manifest (and other, for a file of none of these kinds), where k counts
# the files whose digest differs or that one run lacks. Under changed .ncc
# it prints
#
#   matrix-identical <j>/<k>
#
# where j counts the k differing .ncc files whose matrices load (with this
# tree's load_couplings) to bit-identical C on both sides, so that a change
# of metadata alone, such as final_loss, shows apart from a change of C.
# Then it prints the differing lines. No output and status 0 mean every
# artifact is byte-identical and the manifests agree. The temporary
# directory is removed on exit.
set -euo pipefail

parent_rev="${1:?usage: desk_identity.sh <parent-rev>}"

root="$(git rev-parse --show-toplevel)"
work="$root/.perfbench_work/identity-$$"

trap 'rm -rf "$work"' EXIT

mkdir -p "$work/parent"
git -C "$root" archive "$parent_rev" | tar -x -C "$work/parent"

desk() {  # <tree> <output directory>
  (cd "$1" && OPENBLAS_NUM_THREADS=1 PYTHONPATH="$1/src" \
    bash scripts/desk_scale.sh "$2" > /dev/null)
}

desk "$work/parent" "$work/run-parent"
desk "$root" "$work/run-change"
bash "$work/parent/scripts/peak_rss.sh" 257 "$work/wide-parent" > /dev/null
bash "$root/scripts/peak_rss.sh" 257 "$work/wide-change" > /dev/null

# one line per manifest: its path, then its JSON with wall_clock_s dropped
# and the run directory written as <run>
manifests() {  # <output directory>
  python3 - "$1" <<'EOF'
import json
import pathlib
import sys

root = pathlib.Path(sys.argv[1])
for path in sorted(root.rglob("*.manifest.json")):
    manifest = json.loads(path.read_text())
    manifest.pop("wall_clock_s", None)
    text = json.dumps(manifest, sort_keys=True).replace(sys.argv[1], "<run>")
    print(f"{path.relative_to(root)} {text}")
EOF
}

for run in run wide; do
  for side in parent change; do
    "$root/scripts/artifact_digests.sh" "$work/$run-$side" > "$work/$run-$side.digests"
    manifests "$work/$run-$side" > "$work/$run-$side.manifests"
  done
done

# the per-kind summary, printed only if a listing differs
PYTHONPATH="$root/src" python3 - "$work" run wide <<'EOF'
import sys

import numpy as np

from neural_couplings.nca import load_couplings

work, runs = sys.argv[1], sys.argv[2:]
# (kind, path suffixes); a path takes the first kind that matches
KINDS = (
    (".ncd", (".ncd",)),
    (".ncm", (".ncm",)),
    ("history.csv", ("-history.csv",)),
    (".ncc", (".ncc",)),
    ("loss.csv", ("-loss.csv",)),
    ("report", ("report.json", "report.csv")),
    ("heatmap", (".png",)),
)


def kind(path):
    return next((k for k, ends in KINDS if path.endswith(ends)), "other")


def same_matrix(run, path):
    """Whether both sides hold the file and its matrices are bit-identical."""
    try:
        a, b = (load_couplings(f"{work}/{run}-{side}/{path}")[0] for side in ("parent", "change"))
    except FileNotFoundError:
        return False
    return np.array_equal(a, b)


def listing(side):
    """{(run, kind, path): digest} over every run; a digest line is
    "sha256  path", a manifest line "path json"."""
    entries = {}
    for run in runs:
        with open(f"{work}/{run}-{side}.digests") as f:
            for line in f:
                digest, path = line.rstrip("\n").split("  ", 1)
                entries[run, kind(path), path] = digest
        with open(f"{work}/{run}-{side}.manifests") as f:
            for line in f:
                path, text = line.rstrip("\n").split(" ", 1)
                entries[run, "manifest", path] = text
    return entries


parent, change = listing("parent"), listing("change")
keys = set(parent) | set(change)
if any(parent.get(key) != change.get(key) for key in keys):
    for k in [k for k, _ in KINDS] + ["manifest", "other"]:
        mine = [key for key in keys if key[1] == k]
        if mine:
            moved = [key for key in mine if parent.get(key) != change.get(key)]
            print(f"changed {k} {len(moved)}/{len(mine)}")
            if k == ".ncc" and moved:
                same = sum(same_matrix(run, path) for run, _, path in moved)
                print(f"  matrix-identical {same}/{len(moved)}")
EOF

status=0
for run in run wide; do
  diff "$work/$run-parent.digests" "$work/$run-change.digests" || status=1
  diff "$work/$run-parent.manifests" "$work/$run-change.manifests" || status=1
done
exit "$status"
