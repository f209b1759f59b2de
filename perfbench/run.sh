#!/usr/bin/env bash
# Build the OPPROX daemon and the benchmark from source, then run one
# workload:  bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr; the last
# line of stdout is the result object.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . ./bin/opprox_cli.exe ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
