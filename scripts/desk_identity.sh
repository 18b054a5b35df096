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
# wall_clock_s dropped. Differing lines are printed and the exit status is
# 1; no output and status 0 mean every artifact is byte-identical and the
# manifests agree. The temporary directory is removed on exit.
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

status=0
for run in run wide; do
  diff <("$root/scripts/artifact_digests.sh" "$work/$run-parent") \
       <("$root/scripts/artifact_digests.sh" "$work/$run-change") || status=1
  diff <(manifests "$work/$run-parent") <(manifests "$work/$run-change") || status=1
done
exit "$status"
