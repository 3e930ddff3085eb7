#!/usr/bin/env bash
# Alternating parent/change A/B of one benchmark workload.
#
#   scripts/ab-pairs.sh PARENT_E2E CHANGE_E2E WORKLOAD SEED PAIRS [DLB_THREADS]
#
# PARENT_E2E and CHANGE_E2E are two builds of benchmark/'s `e2e` binary
# (build each side once into its own target directory and copy the
# binary aside — see the verify skill). Every measurement is a fresh
# `e2e child WORKLOAD SEED 6` process; the side that runs first swaps
# each pair, so drift in the machine's state lands on both. Prints every
# pair's `run_wall_s`, `setup_raw_s` (spawn to built instance) and
# `peak_rss_bytes`, then each side's median and quartiles of both times
# and how many pairs the change won on each. Exits 1 if any two runs
# disagree on `cost_last` or `iterations`: the sides must be doing the
# same work for their times to be comparable. DLB_THREADS defaults to 2,
# the gated workloads' setting.
set -euo pipefail

if [ "$#" -lt 5 ] || [ "$#" -gt 6 ]; then
  sed -n '2,5p' "$0" >&2
  exit 2
fi
parent=$1 change=$2 workload=$3 seed=$4 pairs=$5
export DLB_THREADS="${6:-2}"

# One child's result line as
# "run_wall_s setup_raw_s peak_rss_bytes cost_last iterations".
child() {
  "$1" child "$workload" "$seed" 6 | tail -n 1 | awk '{
    n = split("run_wall_s setup_raw_s peak_rss_bytes cost_last iterations", keys, " ")
    for (k = 1; k <= n; k++) {
      if (!match($0, "\"" keys[k] "\":[^,}]*")) { print "missing " keys[k] > "/dev/stderr"; exit 1 }
      field = substr($0, RSTART, RLENGTH)
      sub(/^[^:]*:/, "", field)
      printf "%s%s", field, (k < n ? " " : "\n")
    }
  }'
}

echo "# $workload seed=$seed DLB_THREADS=$DLB_THREADS pairs=$pairs"
echo "# parent=$parent"
echo "# change=$change"
row() { printf '%-5s %-7s %14s %14s %15s %15s %16s %16s\n' "$@"; }
row pair first parent_wall_s change_wall_s parent_setup_s change_setup_s \
  parent_rss_bytes change_rss_bytes

# "win", "tie" or "loss": the change's time $2 against the parent's $1.
verdict() { awk -v a="$1" -v b="$2" 'BEGIN { print (b < a) ? "win" : (b == a) ? "tie" : "loss" }'; }

work="" parent_rss="" change_rss=""
parent_walls="" change_walls="" wall_verdicts=""
parent_setups="" change_setups="" setup_verdicts=""
for pair in $(seq 1 "$pairs"); do
  if [ $((pair % 2)) -eq 1 ]; then
    first=parent; a=$(child "$parent"); b=$(child "$change")
  else
    first=change; b=$(child "$change"); a=$(child "$parent")
  fi
  read -r a_wall a_setup a_rss a_cost a_iters <<<"$a"
  read -r b_wall b_setup b_rss b_cost b_iters <<<"$b"
  for done_work in "$a_cost $a_iters" "$b_cost $b_iters"; do
    if [ -n "$work" ] && [ "$done_work" != "$work" ]; then
      echo "pair $pair: cost_last/iterations '$done_work' differ from '$work'" >&2
      exit 1
    fi
    work=$done_work
  done
  row "$pair" "$first" "$a_wall" "$b_wall" "$a_setup" "$b_setup" "$a_rss" "$b_rss"
  parent_walls+="$a_wall "; change_walls+="$b_wall "
  parent_setups+="$a_setup "; change_setups+="$b_setup "
  parent_rss+="$a_rss "; change_rss+="$b_rss "
  wall_verdicts+="$(verdict "$a_wall" "$b_wall") "
  setup_verdicts+="$(verdict "$a_setup" "$b_setup") "
done

# "q1 median q3" of the numbers on the command line (linear interpolation).
quartiles() {
  printf '%s\n' "$@" | sort -g | awk '
    { v[NR] = $1 }
    function at(p,    h, lo) { h = 1 + (NR - 1) * p; lo = int(h); return v[lo] + (h - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }
    END { printf "%.6g %.6g %.6g\n", at(0.25), at(0.5), at(0.75) }'
}

# Each side's median and quartiles of one time, the median ratio, the
# gap against the parent's interquartile range and the change's wins:
#   summary NAME PARENT_LIST CHANGE_LIST VERDICTS
summary() {
  local p_q1 p_med p_q3 c_q1 c_med c_q3 wins ties
  # shellcheck disable=SC2086  # the lists are split on purpose
  read -r p_q1 p_med p_q3 <<<"$(quartiles $2)"
  # shellcheck disable=SC2086
  read -r c_q1 c_med c_q3 <<<"$(quartiles $3)"
  echo "# $1 parent: median $p_med quartiles $p_q1..$p_q3"
  echo "# $1 change: median $c_med quartiles $c_q1..$c_q3"
  awk -v n="$1" -v p="$p_med" -v c="$c_med" -v q1="$p_q1" -v q3="$p_q3" 'BEGIN {
    printf "# %s change/parent median %.3f; gap %.4g s against a parent interquartile range of %.4g s\n", n, c / p, p - c, q3 - q1 }'
  read -r wins ties <<<"$(awk '{ for (i = 1; i <= NF; i++) n[$i]++ }
    END { printf "%d %d\n", n["win"], n["tie"] }' <<<"$4")"
  echo "# $1 change faster in $wins of $pairs pairs ($ties ties)"
}

echo "# cost_last iterations: $work (identical on every run)"
summary run_wall_s "$parent_walls" "$change_walls" "$wall_verdicts"
summary setup_raw_s "$parent_setups" "$change_setups" "$setup_verdicts"
# shellcheck disable=SC2086  # the lists are split on purpose
{
  read -r _ p_rss _ <<<"$(quartiles $parent_rss)"
  read -r _ c_rss _ <<<"$(quartiles $change_rss)"
}
echo "# peak_rss_bytes median: parent $p_rss change $c_rss"
