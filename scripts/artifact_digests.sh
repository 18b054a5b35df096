#!/usr/bin/env bash
# Content digests of a desk-scale output directory: one "sha256  relpath"
# line per artifact, sorted by path. The *.manifest.json files are skipped
# because they record wall-clock time and differ between runs. Two runs that
# should be byte-identical then compare with one diff:
#
#   diff <(scripts/artifact_digests.sh run-a) <(scripts/artifact_digests.sh run-b)
set -euo pipefail

dir="${1:?usage: artifact_digests.sh <desk output directory>}"
cd "$dir"
find . -type f ! -name '*.manifest.json' -printf '%P\0' | LC_ALL=C sort -z | xargs -0 -r sha256sum
