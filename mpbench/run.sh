#!/bin/sh
# Build the benchmark from source and run it.  Run from the root of an
# mpsyn checkout:
#   sh mpbench/run.sh --workload table1 --seed 1 --seconds 30 --trace 0
# Build output goes to stderr, so the last line of stdout is the result.
# The dune cache is off so that nothing is written outside the checkout.
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f mpbench/dune ]; then
  echo "mpbench: run from the root of an mpsyn checkout" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./mpbench/main.exe 1>&2 || exit 2
exec ./_build/default/mpbench/main.exe "$@"
