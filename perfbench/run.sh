#!/usr/bin/env bash
# Build the repository benchmark from source, then run one workload:
#
#   bash perfbench/run.sh --workload maximize-gowalla --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root.  The build's output goes to stderr, so
# the last line of stdout is the benchmark's JSON result.  A failed build
# exits 3 without printing a result.
set -u
cd "$(dirname "$0")/.." || exit 3
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
if ! dune build --root . ./perfbench/main.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 3
fi
exec ./_build/default/perfbench/main.exe "$@"
