#!/usr/bin/env bash
# Size of a source tree: line counts and the options count.
#
#   scripts/size_report.sh [tree]
#
# tree defaults to the repository this script is in; pass the root of another
# checkout (say a `git archive` copy of an earlier revision) to measure it.
# Prints the line counts of src/ and tests/ (every *.py under each) and the
# options count: the flags of every subcommand of `cli.build_parser()`, the
# fields of every config object, `NcaConfig` and `StftConfig`, and the
# keyword-only parameters of `export_heatmap`, imported from the
# tree's own src/. The set of counted objects is this revision's, so measure
# an earlier revision with that revision's own copy of this script.
set -euo pipefail

tree="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

lines() { find "$tree/$1" -name '*.py' -print0 | xargs -0 cat | wc -l; }

echo "src_lines $(lines src)"
echo "tests_lines $(lines tests)"
PYTHONPATH="$tree/src" python3 - <<'EOF'
import argparse
import dataclasses
import inspect

from neural_couplings import cli
from neural_couplings.analysis import export_heatmap
from neural_couplings.nca import NcaConfig
from neural_couplings.spectral import StftConfig

(sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
flags = sum(
    not isinstance(action, argparse._HelpAction)
    for parser in sub.choices.values()
    for action in parser._actions
)
configs = {c.__name__: len(dataclasses.fields(c)) for c in (NcaConfig, StftConfig)}
configs["export_heatmap keyword"] = sum(
    p.kind is p.KEYWORD_ONLY for p in inspect.signature(export_heatmap).parameters.values()
)
parts = " + ".join(f"{name} {count}" for name, count in configs.items())
print(f"options {flags + sum(configs.values())} (CLI flags {flags} + {parts})")
EOF
