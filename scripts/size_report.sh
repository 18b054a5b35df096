#!/usr/bin/env bash
# Size of a source tree: line counts and the options count.
#
#   scripts/size_report.sh [tree]
#
# tree defaults to the repository this script is in; pass the root of another
# checkout (say a `git archive` copy of an earlier revision) to measure it.
# Prints the line counts of src/ and tests/ (every *.py under each) and the
# options count: the flags of every subcommand of `cli.build_parser()` plus
# the fields of every config object, `TrainConfig`, `NcaConfig`, `StftConfig`
# and `HeatmapSpec`, imported from the tree's own src/.
set -euo pipefail

tree="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

lines() { find "$tree/$1" -name '*.py' -print0 | xargs -0 cat | wc -l; }

echo "src_lines $(lines src)"
echo "tests_lines $(lines tests)"
PYTHONPATH="$tree/src" python3 - <<'EOF'
import argparse
import dataclasses

from neural_couplings import cli
from neural_couplings.analysis import HeatmapSpec
from neural_couplings.nca import NcaConfig
from neural_couplings.spectral import StftConfig
from neural_couplings.training import TrainConfig

(sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
flags = sum(
    not isinstance(action, argparse._HelpAction)
    for parser in sub.choices.values()
    for action in parser._actions
)
configs = {c.__name__: len(dataclasses.fields(c))
           for c in (TrainConfig, NcaConfig, StftConfig, HeatmapSpec)}
parts = " + ".join(f"{name} {count}" for name, count in configs.items())
print(f"options {flags + sum(configs.values())} (CLI flags {flags} + {parts})")
EOF
