#!/usr/bin/env bash
# Desk-scale reproduction: synthesize a two-pair corpus, train all three
# model families over seven seeds, extract couplings with both strategies
# from every checkpoint, and aggregate the metrics into a report.
#
# Budget: the whole run is specified to finish inside 15 minutes on one
# core. Every stage runs serially, so reruns are byte-identical for the
# data artifacts. It starts 8 interpreters: one per command, with one
# couplings command per strategy covering every checkpoint. The acceptance
# suite runs this script twice at once with one BLAS thread; criterion 5
# prints the first run's wall time, taken with the rerun beside it.
#
# The body is one function, called on the last line together with `exit`:
# bash has read the whole file before the first command runs and reads
# nothing after it, so an edit made during a run does not change that run.
set -euo pipefail

run() { python3 -m neural_couplings.cli "$@"; }

main() {
  local OUT="${1:-desk-run}"

  run synth --out "$OUT/dataset.ncd" --n 64 --frames 720 --pairs 2 --seed 0

  for model in dae mss-dae sf; do
    run train \
      --dataset "$OUT/dataset.ncd" \
      --model "$model" \
      --out "$OUT/checkpoints" \
      --seeds 0,1,2,3,4,5,6
  done

  # one process per strategy: the quoted glob reaches the CLI, which matches it
  for strategy in student compositional; do
    run couplings \
      --checkpoint "$OUT/checkpoints/*.ncm" \
      --dataset "$OUT/dataset.ncd" \
      --strategy "$strategy" \
      --iters 600 \
      --lr 1e-3 \
      --frames 350 \
      --seed 0 \
      --out "$OUT/couplings"
  done

  run analyze \
    --couplings "$OUT/couplings/*.ncc" \
    --checkpoints "$OUT/checkpoints" \
    --dataset "$OUT/dataset.ncd" \
    --out "$OUT/report.json"

  # one sample rendering: the first student couplings file, row-normalized
  local samples=("$OUT"/couplings/*-student-*.ncc)
  run heatmap --couplings "${samples[0]}" --out "$OUT/sample.png" --row-normalize

  echo "done: report at $OUT/report.json"
}

main "$@"; exit
