#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to
# the benchmark (see perfbench/README.md).  Run from the repository root:
#   bash perfbench/run.sh --workload plan --seed 1 --seconds 35 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build_dir=.bench_build
# Build output goes to stderr: the last line of stdout is the result.
DUNE_CACHE=disabled dune build --root . --build-dir "$build_dir" ./perfbench/main.exe 1>&2
exec "$build_dir/default/perfbench/main.exe" "$@"
