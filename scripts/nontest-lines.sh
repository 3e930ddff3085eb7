#!/usr/bin/env bash
# Non-test workspace lines — the one definition behind ROADMAP item 5's
# "non-test workspace lines" acceptance.
#
# Counting rule: for every `*.rs` under `crates/*/src` and the root
# `src/`, the lines up to the file's first item-level `#[cfg(test)]` —
# the first line that starts with it, that line included (the whole
# file when it has none). A file that opens with `#![cfg(test)]` is
# test-only and counts that one line; `proptests.rs` files are
# test-only and skipped. Comments and blank lines count: the rule
# measures what a reader has to get through, not statements.
#
#   scripts/nontest-lines.sh            per-crate counts, then the total
#   scripts/nontest-lines.sh --max N    the same, and exit 1 when the
#                                       total exceeds N (the CI ceiling)
set -euo pipefail

max=
if [[ $# -gt 0 ]]; then
  [[ $# -eq 2 && $1 == --max && $2 =~ ^[0-9]+$ ]] || { echo "usage: $0 [--max N]" >&2; exit 2; }
  max=$2
fi

cd "$(dirname "${BASH_SOURCE[0]}")/.."

total=0
for dir in crates/*/src src; do
  lines=$(find "$dir" -name '*.rs' ! -name proptests.rs -print0 | sort -z |
    xargs -0 awk 'FNR == 1 { counting = 1 }
                  counting { n++ }
                  /^#!?\[cfg\(test\)\]/ { counting = 0 }
                  END { print n + 0 }')
  printf '%8d  %s\n' "$lines" "$dir"
  total=$((total + lines))
done
printf '%8d  total\n' "$total"
if [[ -n $max && $total -gt $max ]]; then
  echo "non-test workspace lines: $total exceeds the ceiling of $max" >&2
  exit 1
fi
