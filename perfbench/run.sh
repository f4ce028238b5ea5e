#!/usr/bin/env bash
# Build the server and the benchmark from source, then run one workload.
# From the repository root:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
set -eu
if [ ! -f dune-project ] || [ ! -f bin/rw.ml ] || [ ! -d lib ]; then
  echo "perfbench/run.sh: run from the repository root; the server's sources are missing here" >&2
  exit 2
fi
dune build --root . bin/rw.exe perfbench/bench.exe 1>&2
exec _build/default/perfbench/bench.exe "$@"
