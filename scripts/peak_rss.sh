#!/usr/bin/env bash
# Peak memory of each pipeline command at one width:
#
#   scripts/peak_rss.sh <n> [out-dir]
#
# Runs synth (2 pairs of max(720, n) frames, n bins), train (mss-dae, seed
# 0, 2 epochs), train again with the desk's 7 seeds (0-6, trained as one
# stack), couplings (student, then compositional, 20 iterations on every
# window of max(350, n) frames) and analyze, each in a fresh interpreter
# with BLAS pinned to one thread and this tree's src/ first on the path. A
# window thus holds at least n frames, so its loss determines C (ROADMAP
# item 11); up to n = 350 the sizes are the benchmark's. For each command it
# prints its peak resident set size above what importing the CLI took
# (ru_maxrss after the command minus ru_maxrss after the import), in MiB, so
# a memory change can say which command sets the pipeline's peak. Files go
# to out-dir, or to a temporary directory that is removed on exit; the
# 7-seed files always go to a temporary directory removed on exit, so
# out-dir holds one checkpoint.
set -euo pipefail

n="${1:?usage: peak_rss.sh <n> [out-dir]}"
frames=$((n > 720 ? n : 720))
window=$((n > 350 ? n : 350))
root="$(cd "$(dirname "$0")/.." && pwd)"
stack="$(mktemp -d)"
if [[ $# -ge 2 ]]; then
  out="$2"
  mkdir -p "$out"
  trap 'rm -rf "$stack"' EXIT
else
  out="$(mktemp -d)"
  trap 'rm -rf "$stack" "$out"' EXIT
fi

run() {  # <label> <nca arguments...>
  OPENBLAS_NUM_THREADS=1 PYTHONPATH="$root/src" python3 - "$@" <<'EOF'
import resource
import sys


def peak_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


from neural_couplings import cli

base = peak_mib()
if cli.main(sys.argv[2:]) != 0:
    sys.exit(1)
print(f"{sys.argv[1]:24} {peak_mib() - base:8.2f} MiB")
EOF
}

echo "n=$n: peak RSS above import"
run synth synth --out "$out/dataset.ncd" --n "$n" --frames "$frames" --pairs 2 --seed 0
run train train --dataset "$out/dataset.ncd" --model mss-dae --out "$out/checkpoints" \
  --seeds 0 --max-epochs 2
run "train 7 seeds" train --dataset "$out/dataset.ncd" --model mss-dae --out "$stack" \
  --seeds 0,1,2,3,4,5,6 --max-epochs 2
for strategy in student compositional; do
  run "couplings $strategy" couplings --checkpoint "$out/checkpoints/*.ncm" \
    --dataset "$out/dataset.ncd" --strategy "$strategy" --iters 20 --frames "$window" \
    --out "$out/couplings"
done
run analyze analyze --couplings "$out/couplings/*.ncc" --checkpoints "$out/checkpoints" \
  --dataset "$out/dataset.ncd" --out "$out/report.json"
