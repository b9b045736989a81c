#!/bin/sh
# Bench-regression gate: reads BENCH_PR8.json (emitted by `bench_pr8`) and
# fails if the epoch speedup ratio fell below its floor or the determinism
# flag is not true. No jq in the image, so extraction is sed-based like
# validate_events.sh: scope to the workload's JSON object, then pull the
# numeric field.
#
# usage: bench_gate.sh [bench-json] [floors-env]
set -eu

JSON="${1:-BENCH_PR8.json}"
FLOORS="${2:-$(dirname "$0")/bench_floors.env}"

fail() {
  echo "bench_gate: $1" >&2
  exit 1
}

[ -s "$JSON" ] || fail "missing or empty $JSON (run bench_pr8 first)"
[ -s "$FLOORS" ] || fail "missing floors file $FLOORS"

# shellcheck disable=SC1090
. "$FLOORS"
: "${BENCH_FLOOR_EPOCH:?bench_floors.env must set BENCH_FLOOR_EPOCH}"

# extract <workload> <field>: prints the numeric value of "field" inside the
# top-level "workload" object (first match wins).
extract() {
  sed -n "/\"$1\": {/,/}/p" "$JSON" \
    | sed -n "s/.*\"$2\": \([-0-9.][0-9.eE+-]*\).*/\1/p" \
    | head -n 1
}

# at_least <value> <floor>: floating-point compare via awk.
at_least() {
  awk -v v="$1" -v f="$2" 'BEGIN { exit !(v + 0 >= f + 0) }'
}

gate() {
  workload="$1"
  floor="$2"
  ratio="$(extract "$workload" speedup_serial_vs_seed)"
  [ -n "$ratio" ] || fail "no speedup_serial_vs_seed for \"$workload\" in $JSON"
  at_least "$ratio" "$floor" \
    || fail "$workload speedup $ratio fell below floor $floor"
  echo "bench_gate: $workload speedup $ratio >= floor $floor"
}

gate epoch "$BENCH_FLOOR_EPOCH"

# The bench asserts this itself, but a stale/hand-edited JSON must not pass.
flag=epoch_params_bit_identical_across_thread_counts
grep -q "\"$flag\": true" "$JSON" || fail "determinism flag $flag is not true"

echo "bench_gate: $JSON OK"
