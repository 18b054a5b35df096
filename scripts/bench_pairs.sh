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
# pair to the next. Then scripts/pairs_summary.py prints, for every
# end-to-end metric in BENCHMARK.json, each side's median and quartiles, how
# many pairs the change won and a verdict (gain, worse, unresolved or same;
# see that file). Each run's result line is kept in
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

python3 "$root/scripts/pairs_summary.py" "$root/BENCHMARK.json" "$out" "$pairs" "$workload" "$seed"
