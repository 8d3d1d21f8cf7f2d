#!/usr/bin/env bash
# Build the pipeline benchmark from source and run one workload:
#   bash pipebench/run.sh --workload W --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the last line on stdout is the
# benchmark's result JSON.  The dune cache is off so that the build reads
# and writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled ./pipebench/main.exe 1>&2
exec ./_build/default/pipebench/main.exe pipeline "$@"
