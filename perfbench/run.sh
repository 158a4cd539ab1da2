#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout that holds this
# script, then runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Every other command of perfbench/main.exe (workload, workload-set,
# agree, micro, list) passes through as well.  Build output stays in the
# checkout's _build directory.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no dune-project and lib/ next to perfbench/; run from a full checkout" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
