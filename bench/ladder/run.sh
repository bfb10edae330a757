#!/bin/sh
# Build the ladder and the daemon it drives from this checkout, then run
# it; the arguments go to `ladder.exe run`, for instance
#   bench/ladder/run.sh --workload library --seed 3 --seconds 12 --trace 0
# Build output goes to stderr, so the last stdout line is the result.
set -e
cd "$(dirname "$0")/../.."
dune build --root . --cache=disabled --display=quiet \
  ./bench/ladder/ladder.exe ./bin/wmm_bench.exe 1>&2
exec ./_build/default/bench/ladder/ladder.exe run "$@"
