#!/usr/bin/env bash
# Build the flow's CLI and the benchmark from source, then run the
# benchmark with the given arguments, from the repository root:
#   bash bench/suite/run.sh --workload synth-flow --seed 11 --seconds 20 --trace 0
# Build output goes to stderr, so the benchmark's result line stays the
# last line of stdout. The dune cache stays off: the build reads and
# writes only inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/../.."
DUNE_CACHE=disabled dune build --root . bin/mamps_flow.exe bench/suite/benchmark.exe 1>&2
exec ./_build/default/bench/suite/benchmark.exe "$@"
