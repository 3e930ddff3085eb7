#!/usr/bin/env bash
# Builds the benchmark (release, offline: every dependency is a path
# into this repository, down to the vendored shims) and runs it.
#
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#       the pipeline's form: one workload, result line last.
#       --trace 0 runs `e2e` (end-to-end metrics, tracing off),
#       --trace 1 runs `layers` (the traced pass, per-layer metrics).
#   benchmark/run.sh [run|noise|pins] [...]     -> e2e run|noise|pins
#   benchmark/run.sh trace [...]                -> layers trace
#   benchmark/run.sh layers-pins                -> layers pins
#
# Only the binary that will run is built, so `layers` failing to
# compile after a refactor of inner APIs cannot take the `e2e` gate
# down with it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

bin=e2e
args=("$@")
if [ "$#" -eq 0 ]; then
  args=(run)
elif [ "$1" = trace ]; then
  bin=layers
elif [ "$1" = layers-pins ]; then
  bin=layers
  args=(pins)
else
  previous=""
  for arg in "$@"; do
    if [ "$previous" = "--trace" ] && [ "$arg" = 1 ]; then
      bin=layers
    fi
    previous="$arg"
  done
fi

# Build output goes to stderr: standard output carries only results.
cargo build --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" --bin "$bin" >&2

exec "$CARGO_TARGET_DIR/release/$bin" "${args[@]}"
