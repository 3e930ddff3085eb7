#!/usr/bin/env bash
# One scenario's record must not depend on the worker count.
#
#   scripts/same-record.sh [--engine] OUT SCENARIO
#
# Runs `dlb run --scenario SCENARIO` with the release binary
# (`cargo build --release -p dlb-cli`) at DLB_THREADS=1 and 4, writing
# the records to OUT_1.jsonl and OUT_4.jsonl and their normalised copies
# to OUT_1_n.jsonl and OUT_4_n.jsonl, then `cmp`s the two copies. The
# normalisation blanks the `dlb_threads` stamp every record carries and,
# under --engine, `wall_secs` too: an engine record holds real wall
# time, a protocol record virtual time. Exits 1 when the copies differ.
set -euo pipefail

engine=
if [[ ${1-} == --engine ]]; then
  engine=1
  shift
fi
[[ $# -eq 2 ]] || { sed -n '4p' "$0" >&2; exit 2; }
out=$1 scenario=$2
dlb="$(dirname "${BASH_SOURCE[0]}")/../target/release/dlb"

normalise() {
  if [[ -n $engine ]]; then
    sed -e 's/"wall_secs":[0-9.e-]*/"wall_secs":0/' -e 's/"dlb_threads":[0-9]*/"dlb_threads":X/' "$1"
  else
    sed 's/"dlb_threads":[0-9]*/"dlb_threads":X/' "$1"
  fi
}

for t in 1 4; do
  DLB_THREADS=$t "$dlb" run --scenario "$scenario" --out "${out}_$t.jsonl"
  normalise "${out}_$t.jsonl" > "${out}_${t}_n.jsonl"
done
cmp "${out}_1_n.jsonl" "${out}_4_n.jsonl"
