#!/usr/bin/env bash
# Build the benchmark from source, then run one workload:
#
#   bash perfbench/run.sh --workload farm-nominal --seed 1 --seconds 20 --trace 0
#
# The build goes to $CARGO_TARGET_DIR (default .bench_build) with dune's
# shared cache off, so nothing is read or written outside the checkout.
# The last line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
build_dir="${CARGO_TARGET_DIR:-.bench_build}"
dune build --root . --build-dir "$build_dir" --cache=disabled \
  ./perfbench/main.exe 1>&2
exec "$build_dir/default/perfbench/main.exe" "$@"
