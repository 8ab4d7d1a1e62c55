#!/usr/bin/env bash
# Build the benchmark from source and run it:
#   bash clsmbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root. The build's output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
dune build --root . ./clsmbench/clsmbench.exe 1>&2
exec ./_build/default/clsmbench/clsmbench.exe "$@"
