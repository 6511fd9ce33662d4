#!/usr/bin/env bash
# Build the layered benchmark from source (release profile) and run it.
# Run from anywhere inside a checkout; the arguments go to main.exe, e.g.
#   bash bench/layers/run.sh --workload adaptive_search --seed 1 --seconds 20 --trace 0
# Build output goes to stderr, so the last stdout line is main.exe's result.
set -euo pipefail
cd "$(dirname "$0")/../.."
dune build --root . --profile release --cache=disabled ./bench/layers/main.exe 1>&2
exec ./_build/default/bench/layers/main.exe "$@"
