#!/usr/bin/env bash
# Alternating parent/change benchmark pairs for one workload:
#
#   scripts/bench_pairs.sh <parent-rev> <workload> [pairs] [seed]
#
# Copies <parent-rev> (with `git archive`) and the working tree's tracked
# files, as they are on disk, into .perfbench_work/parent-<pid>/ and
# .perfbench_work/change-<pid>/, two paths of equal length: peak_rss_mb
# moved with the length of the path a tree ran from. It runs
# `python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0`
# in each copy, once each per pair, swapping which tree runs first from one
# pair to the next. For every end-to-end metric in BENCHMARK.json it then
# prints each side's median and quartiles and how many pairs the change
# won. Each run's result line is kept in
# .perfbench_work/pairs-<workload>-seed<seed>/. Both copies are removed on
# exit. pairs defaults to 10 and seed to 3.
set -euo pipefail

usage="usage: bench_pairs.sh <parent-rev> <workload> [pairs] [seed]"
parent_rev="${1:?$usage}"
workload="${2:?$usage}"
pairs="${3:-10}"
seed="${4:-3}"
((pairs >= 2)) || { echo "bench_pairs.sh: quartiles need at least 2 pairs" >&2; exit 2; }

root="$(git rev-parse --show-toplevel)"
work="$root/.perfbench_work"
parent="$work/parent-$$"
change="$work/change-$$"
out="$work/pairs-$workload-seed$seed"

trap 'rm -rf "$parent" "$change"' EXIT

rm -rf "$out"
mkdir -p "$out" "$parent" "$change"
git -C "$root" archive "$parent_rev" | tar -x -C "$parent"
git -C "$root" ls-files -z | tar -C "$root" --null -T - -c | tar -x -C "$change"

run() {  # <tree> <side> <pair>
  (cd "$1" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
    --seconds 30 --trace 0) | tail -n 1 > "$out/$2-$3.json"
}

for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then
    run "$parent" parent "$i"
    run "$change" change "$i"
  else
    run "$change" change "$i"
    run "$parent" parent "$i"
  fi
  echo "pair $((i + 1))/$pairs done" >&2
done

python3 - "$root/BENCHMARK.json" "$out" "$pairs" "$workload" "$seed" <<'EOF'
import json
import statistics
import sys

bench, out, pairs, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3]), *sys.argv[4:]


def load(side):
    runs = []
    for i in range(pairs):
        with open(f"{out}/{side}-{i}.json") as f:
            runs.append({k: m["value"] for k, m in json.load(f)["metrics"].items()})
    return runs


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


parent, change = load("parent"), load("change")
print(f"{workload} seed {seed}, {pairs} pairs; median [q1, q3] per side")
print(f"{'metric':22} {'better':6} {'parent':36} {'change':36} wins")
with open(bench) as f:
    metrics = json.load(f)["end_to_end"]
for metric in metrics:
    name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
    p = [r[name] for r in parent]
    c = [r[name] for r in change]
    wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    print(f"{name:22} {metric['better']:6} {quartiles(p):36} {quartiles(c):36} {wins}/{pairs}")
EOF
