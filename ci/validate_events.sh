#!/bin/sh
# Validates a telemetry sink directory without jq.
#
# The heavy lifting (checksum trailer, per-line flat-JSON parse, closed event
# schema, strictly increasing seq) is done by the in-tree Rust validator
# (`stuq telemetry validate`); this script adds shape checks on the other two
# artefacts so CI fails loudly if a run stops emitting them.
#
# usage: validate_events.sh <telemetry-dir> [stuq-binary]
set -eu

DIR="${1:?usage: validate_events.sh <telemetry-dir> [stuq-binary]}"
STUQ="${2:-./target/release/stuq}"

"$STUQ" telemetry validate --dir "$DIR"

for f in events.jsonl metrics.prom manifest.json; do
  if [ ! -s "$DIR/$f" ]; then
    echo "validate_events: missing or empty $DIR/$f" >&2
    exit 1
  fi
done

fail() {
  echo "validate_events: $1" >&2
  exit 1
}

grep -q '"type":"run_start"' "$DIR/events.jsonl" || fail "no run_start event"
grep -q '"type":"run_end"' "$DIR/events.jsonl" || fail "no run_end event"
# Serving runs must close their lifecycle: a serve_start without a matching
# serve_stop means the loop died without draining.
if grep -q '"type":"serve_start"' "$DIR/events.jsonl"; then
  grep -q '"type":"serve_stop"' "$DIR/events.jsonl" || fail "serve_start without serve_stop"
fi
# Trace-level runs: span events must pair up and carry well-formed ids
# (the Rust validator already enforces start-before-end and seq order on
# the joined segment+tail stream; these are cheap shape checks).
if grep -q '"type":"span_start"' "$DIR/events.jsonl"; then
  grep -q '"type":"span_end"' "$DIR/events.jsonl" || fail "span_start without any span_end"
  grep '"type":"span_start"' "$DIR/events.jsonl" | grep -vq '"parent":"' \
    && fail "span_start missing its parent id"
  grep '"type":"span_' "$DIR/events.jsonl" | grep -vqE '"trace":"[0-9a-f]{16}"' \
    && fail "span event with a malformed trace id"
  grep '"type":"span_start"' "$DIR/events.jsonl" | grep -vq '"phase":"' \
    && fail "span_start missing its phase"
fi
# Replicated-cluster events (DESIGN.md §16): failovers and injected faults
# must be typed and carry their replica attribution.
if grep -q '"type":"cluster_failover"' "$DIR/events.jsonl"; then
  grep '"type":"cluster_failover"' "$DIR/events.jsonl" | grep -vq '"from_replica":' \
    && fail "cluster_failover missing from_replica"
  grep '"type":"cluster_failover"' "$DIR/events.jsonl" | grep -vq '"to_replica":' \
    && fail "cluster_failover missing to_replica"
  grep '"type":"cluster_failover"' "$DIR/events.jsonl" | grep -vq '"reason":"' \
    && fail "cluster_failover missing its typed reason"
fi
if grep -q '"type":"faultnet_inject"' "$DIR/events.jsonl"; then
  grep '"type":"faultnet_inject"' "$DIR/events.jsonl" \
    | grep -vqE '"reason":"(drop|delay|truncate|bitflip)"' \
    && fail "faultnet_inject with an unknown fault reason"
  grep '"type":"faultnet_inject"' "$DIR/events.jsonl" | grep -vq '"rpc":' \
    && fail "faultnet_inject missing its rpc index"
fi
grep -q '"schema": "stuq-run-manifest-v1"' "$DIR/manifest.json" || fail "bad manifest schema"
grep -q '^stuq_train_batches_total ' "$DIR/metrics.prom" || fail "metrics.prom missing counters"
grep -q '^# TYPE stuq_train_epoch_seconds summary' "$DIR/metrics.prom" \
  || fail "metrics.prom missing histograms"

echo "validate_events: $DIR OK"
