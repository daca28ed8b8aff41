#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it:
#
#   bash benchmark/run.sh --workload check-small --seed 3 --seconds 30 --trace 0
#
# Run from the root of the checkout.  Arguments go to `main.exe run`;
# build output goes to stderr, so the last line of stdout stays the
# result object.
set -euo pipefail
dune build --root . ./benchmark/main.exe ./benchmark/calib.exe 1>&2
exec ./_build/default/benchmark/main.exe run "$@"
