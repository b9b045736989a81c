#!/bin/sh
# Chaos smoke for the sample-sharded cluster runtime (DESIGN.md §13).
#
# Phase 1 — determinism: a mixed request stream (full-window and node-subset
# requests, some under deadline pressure), its MC passes split over a
# 3-worker cluster under the fake clock, must answer byte-identically at
# STUQ_THREADS=1/2/4 — and byte-identically to a solo server.
# Phase 2 — chaos: a long-lived router with 3 supervised worker processes is
# warmed up, one worker is SIGKILLed mid-storm, and the cluster must (a) keep
# answering with degraded forecasts that lost exactly the dead worker's
# sample range, (b) restart the worker within the backoff budget and return
# to `healthy`, and (c) answer post-recovery requests byte-identically to a
# never-killed control run of the same stream.
# Phase 3 — two-phase reload: a new artifact commits cluster-wide (unanimous
# ack, every response on the new checksum, no version-skew slices); a corrupt
# artifact aborts cluster-wide with the old version intact.
# Phase 4 — distributed tracing (DESIGN.md §15): a trace-level session with a
# SIGKILLed shard must join router + per-worker event logs into a strict-clean
# `stuq trace` timeline that attributes the degraded slice to the dead shard
# with its typed reason, and a `cluster-metrics` scrape must export a merged
# Prometheus dump covering every live worker.
# Phase 5 — replicated shards (DESIGN.md §16): a 2-shard × 2-replica cluster
# with a deterministic `--faultnet drop` plan spliced into one victim replica
# per shard must (a) answer byte-identically across STUQ_THREADS=1/2/4 and
# to a solo server, with every drop a logged failover and zero degraded
# responses, and (b) under the fault plan *plus* a SIGKILLed victim, serve a
# forecast stream byte-identical to a fault-free control cluster, with every
# injected drop matched by a typed failover event and a strict-clean trace
# join.
#
# usage: cluster_chaos.sh [stuq-binary] [work-dir]
set -eu

STUQ="${1:-./target/release/stuq}"
WORK="${2:-/tmp/stuq-cluster-chaos}"

# Await budgets scale with STUQ_CHAOS_TIME_SCALE (default 1, integer): slow
# shared CI runners set it >1 to stretch every timeout proportionally without
# loosening the local (scale-1) run. Poll intervals are unchanged — only the
# iteration caps grow.
SCALE="${STUQ_CHAOS_TIME_SCALE:-1}"
AWAIT_TRIES=$((300 * SCALE))
RECOVER_TRIES=$((60 * SCALE))

fail() {
  echo "cluster_chaos: $1" >&2
  exit 1
}

rm -rf "$WORK"
mkdir -p "$WORK"

echo "=== cluster_chaos: fixtures ==="
"$STUQ" simulate --preset pems08 --node-frac 0.08 --step-frac 0.02 \
  --seed 61 --out "$WORK/flow.stuqd"
"$STUQ" train --data "$WORK/flow.stuqd" --epochs 1 --awa-epochs 2 \
  --batch 8 --mc 3 --seed 61 --out "$WORK/model.stuq"
"$STUQ" train --data "$WORK/flow.stuqd" --epochs 1 --awa-epochs 2 \
  --batch 8 --mc 3 --seed 67 --out "$WORK/model-b.stuq"
cp "$WORK/model.stuq" "$WORK/live.stuq"

echo "=== cluster_chaos: phase 1 (sample-range determinism, threads 1/2/4) ==="
# 18 full-window requests under a tight deadline plus 12 node-subset
# requests: the range split, the seed derivation, and the router's deadline
# degradation must all be pure functions of the stream.
"$STUQ" gen-requests --data "$WORK/flow.stuqd" --count 18 --deadline-ms 4 \
  --mc 8 --seed 200 --out "$WORK/det-full.ndjson"
"$STUQ" gen-requests --data "$WORK/flow.stuqd" --count 12 --mc 6 \
  --hot-nodes 4 --seed 230 --out "$WORK/det-nodes.ndjson"
cat "$WORK/det-full.ndjson" "$WORK/det-nodes.ndjson" >"$WORK/det.ndjson"
for t in 1 2 4; do
  STUQ_FAKE_CLOCK=1 STUQ_THREADS=$t "$STUQ" serve --role router --shards 3 \
    --model "$WORK/model.stuq" --data "$WORK/flow.stuqd" \
    --worker-dir "$WORK/workers-t$t" --max-queue 1000 --floor 2 \
    <"$WORK/det.ndjson" >"$WORK/det-t$t.out" 2>/dev/null
done
STUQ_FAKE_CLOCK=1 "$STUQ" serve --model "$WORK/model.stuq" --data "$WORK/flow.stuqd" \
  --max-queue 1000 --floor 2 --reload-poll-ms 0 \
  <"$WORK/det.ndjson" >"$WORK/det-solo.out" 2>/dev/null
cmp "$WORK/det-t1.out" "$WORK/det-t2.out" || fail "cluster responses differ between 1 and 2 threads"
cmp "$WORK/det-t1.out" "$WORK/det-t4.out" || fail "cluster responses differ between 1 and 4 threads"
cmp "$WORK/det-t1.out" "$WORK/det-solo.out" || fail "cluster responses differ from a solo server"
[ "$(grep -c '"type":"forecast"' "$WORK/det-t1.out")" -eq 30 ] \
  || fail "expected 30 forecast responses"
grep -q '"degraded":true' "$WORK/det-t1.out" || fail "the tight deadline degraded nothing"
grep -q '"partial"' "$WORK/det-t1.out" && fail "a response carries the removed partial key"
echo "phase 1 OK: 30 responses byte-identical across thread counts and to solo"

echo "=== cluster_chaos: phase 2 (SIGKILL a worker mid-storm) ==="
"$STUQ" gen-requests --data "$WORK/flow.stuqd" --count 12 --mc 6 \
  --burst 4 --seed 300 --out "$WORK/warm.ndjson"
"$STUQ" gen-requests --data "$WORK/flow.stuqd" --count 24 --mc 6 \
  --burst 8 --seed 310 --out "$WORK/storm.ndjson"
head -n 12 "$WORK/storm.ndjson" >"$WORK/storm-a.ndjson"
tail -n 12 "$WORK/storm.ndjson" >"$WORK/storm-b.ndjson"
# Post-recovery probe: explicitly seeded, so its responses are independent
# of arrival index — a fresh control cluster must reproduce them exactly.
"$STUQ" gen-requests --data "$WORK/flow.stuqd" --count 6 --mc 6 \
  --seed 320 --out "$WORK/post-raw.ndjson"
sed 's/"id":"r/"id":"post-r/' "$WORK/post-raw.ndjson" >"$WORK/post.ndjson"

FIFO="$WORK/in.fifo"
mkfifo "$FIFO"
STUQ_FAKE_CLOCK=1 "$STUQ" serve --role router --shards 3 \
  --model "$WORK/live.stuq" --data "$WORK/flow.stuqd" \
  --worker-dir "$WORK/workers" --max-queue 1000 \
  --restart-backoff-ms 200 --restart-backoff-max-ms 1600 \
  --telemetry-dir "$WORK/telemetry" --health-dir "$WORK/health" \
  <"$FIFO" >"$WORK/chaos.out" 2>"$WORK/chaos.err" &
ROUTER_PID=$!
exec 3>"$FIFO"

await_lines() {
  want=$1
  what=$2
  i=0
  while [ "$(wc -l <"$WORK/chaos.out")" -lt "$want" ]; do
    i=$((i + 1))
    [ "$i" -le "$AWAIT_TRIES" ] || fail "timed out waiting for $what ($want lines)"
    kill -0 "$ROUTER_PID" 2>/dev/null || fail "router died waiting for $what"
    sleep 0.1
  done
}

printf '{"type":"healthz","id":"h1"}\n' >&3
await_lines 1 "initial healthz"
grep -q '"type":"health".*"cluster":true' "$WORK/chaos.out" || fail "no cluster health response"
grep -q '"status":"healthy"' "$WORK/chaos.out" || fail "cluster did not come up healthy"

# Warm every shard (full-window bursts give each one live σ history).
cat "$WORK/warm.ndjson" >&3
await_lines 13 "warmup burst"

# Storm, first half clean…
cat "$WORK/storm-a.ndjson" >&3
await_lines 25 "storm first half"
# …then SIGKILL shard 1's worker process mid-burst.
WPID=$(pgrep -f "worker-1.sock" | head -n 1)
[ -n "$WPID" ] || fail "could not find shard 1's worker process"
kill -9 "$WPID"
cat "$WORK/storm-b.ndjson" >&3
await_lines 37 "storm second half"

# The supervisor must notice, back off, respawn and reconnect; the idle-tick
# health mirror flips back to healthy with
# shard 1's restart on record (so a stale pre-kill snapshot cannot pass).
recovered() {
  grep -q '"status":"healthy"' "$WORK/health/health.json" 2>/dev/null \
    && grep -q '"shard":1,"state":"up","breaker":"closed","restarts":1' \
      "$WORK/health/health.json" 2>/dev/null
}
i=0
until recovered; do
  i=$((i + 1))
  [ "$i" -le "$RECOVER_TRIES" ] || fail "cluster did not recover within the backoff budget (~15s x scale)"
  kill -0 "$ROUTER_PID" 2>/dev/null || fail "router died during recovery"
  sleep 0.25
done

cat "$WORK/post.ndjson" >&3
await_lines 43 "post-recovery forecasts"
printf '{"type":"shutdown","id":"bye"}\n' >&3

echo "=== cluster_chaos: phase 3 (two-phase reload: commit, then abort) ==="
# Mid-session hot swap: the router validates once, stages on every worker,
# and commits only on unanimous ack.
cp "$WORK/model-b.stuq" "$WORK/live.stuq"
# Reopen the pipe writer for the next lines (shutdown was already queued —
# so phase 3 runs in a second session against the same work dir).
exec 3>&-
wait "$ROUTER_PID" || fail "router exited nonzero"

FIFO2="$WORK/in2.fifo"
mkfifo "$FIFO2"
STUQ_FAKE_CLOCK=1 "$STUQ" serve --role router --shards 3 \
  --model "$WORK/live.stuq" --data "$WORK/flow.stuqd" \
  --worker-dir "$WORK/workers2" --max-queue 1000 \
  --telemetry-dir "$WORK/telemetry2" \
  <"$FIFO2" >"$WORK/reload.out" 2>"$WORK/reload.err" &
ROUTER2_PID=$!
exec 4>"$FIFO2"

await_reload() {
  want=$1
  what=$2
  i=0
  while [ "$(wc -l <"$WORK/reload.out")" -lt "$want" ]; do
    i=$((i + 1))
    [ "$i" -le "$AWAIT_TRIES" ] || fail "timed out waiting for $what ($want lines)"
    kill -0 "$ROUTER2_PID" 2>/dev/null || fail "reload router died waiting for $what"
    sleep 0.1
  done
}

# Baseline forecast on model B, then swap the artifact back to model A and
# commit it cluster-wide.
head -n 1 "$WORK/post.ndjson" >&4
await_reload 1 "baseline forecast"
cp "$WORK/model.stuq" "$WORK/live.stuq"
printf '{"type":"reload","id":"rl1"}\n' >&4
await_reload 2 "reload commit ack"
head -n 1 "$WORK/post.ndjson" >&4
await_reload 3 "post-commit forecast"
# A corrupt artifact must abort cluster-wide, leaving the committed version.
printf 'garbage' >"$WORK/live.stuq"
printf '{"type":"reload","id":"rl2"}\n' >&4
await_reload 4 "reload abort ack"
head -n 1 "$WORK/post.ndjson" >&4
await_reload 5 "post-abort forecast"
printf '{"type":"shutdown","id":"bye2"}\n' >&4
await_reload 6 "shutdown ack"
exec 4>&-
wait "$ROUTER2_PID" || fail "reload router exited nonzero"

echo "=== cluster_chaos: contract checks ==="
# Closed response set; the kill costs exactly shard 1's sample range (2..4
# of 6) and nothing else; recovery restores full sample counts.
BAD=$(grep -cvE '^\{"type":"(forecast|rejected|fallback|error|health|ack)"' "$WORK/chaos.out" || true)
[ "$BAD" -eq 0 ] || fail "$BAD response lines outside the closed type set"
grep -q '"partial"' "$WORK/chaos.out" && fail "a response carries the removed partial key"
grep -q '"degraded":true,"samples_used":4,"samples_requested":6' "$WORK/chaos.out" \
  || fail "the kill produced no forecast degraded by shard 1's sample range"
grep '"type":"forecast"' "$WORK/chaos.out" | grep -v '"samples_requested":6' | grep -q . \
  && fail "a forecast answered a sample count other than the requested 6"
grep '"type":"forecast"' "$WORK/chaos.out" | grep -Eq '"samples_used":[0-35]' \
  && fail "a forecast lost passes other than shard 1's range"
grep '"id":"post-r' "$WORK/chaos.out" | grep -q '"degraded":true' \
  && fail "post-recovery responses must not be degraded"
grep -q '"id":"bye"' "$WORK/chaos.out" || fail "shutdown was not acknowledged"

# Post-recovery byte identity against a never-killed control cluster.
grep '"id":"post-r' "$WORK/chaos.out" >"$WORK/post-recovered.out"
[ "$(wc -l <"$WORK/post-recovered.out")" -eq 6 ] || fail "expected 6 post-recovery responses"
STUQ_FAKE_CLOCK=1 "$STUQ" serve --role router --shards 3 \
  --model "$WORK/model.stuq" --data "$WORK/flow.stuqd" \
  --worker-dir "$WORK/workers-ctl" --max-queue 1000 \
  <"$WORK/post.ndjson" >"$WORK/post-control.out" 2>/dev/null
cmp "$WORK/post-recovered.out" "$WORK/post-control.out" \
  || fail "post-recovery responses differ from the never-killed control run"

# Supervision left its trail: spawn, death, restart — and the event log
# passes the closed-schema validator.
grep -q '"type":"worker_down"' "$WORK/telemetry/events.jsonl" || fail "no worker_down event"
grep -q '"type":"worker_restart".*"shard":1' "$WORK/telemetry/events.jsonl" \
  || fail "no worker_restart event for shard 1"
grep -q '"type":"serve_degraded"' "$WORK/telemetry/events.jsonl" || fail "no serve_degraded event"
sh ci/validate_events.sh "$WORK/telemetry" "$STUQ"
grep -q '"cluster":true' "$WORK/health/health.json" || fail "health.json is not cluster-shaped"

# Two-phase reload: the commit ack carries the new checksum, the next
# forecast serves it, and the aborted corrupt reload changes nothing.
COMMIT_CK=$(sed -n 's/.*"id":"rl1".*"checksum":"\([0-9a-f]*\)".*/\1/p' "$WORK/reload.out")
[ -n "$COMMIT_CK" ] || fail "reload commit ack has no checksum"
grep -q '"id":"rl1".*"ok":true' "$WORK/reload.out" || fail "reload did not commit"
[ "$(sed -n '3p' "$WORK/reload.out" | grep -c "\"model\":\"$COMMIT_CK\"")" -eq 1 ] \
  || fail "post-commit forecast not on the committed checksum"
grep -q '"id":"rl2".*"ok":false' "$WORK/reload.out" || fail "corrupt reload did not abort"
[ "$(sed -n '5p' "$WORK/reload.out" | grep -c "\"model\":\"$COMMIT_CK\"")" -eq 1 ] \
  || fail "post-abort forecast left the committed checksum"
sed -n '3p;5p' "$WORK/reload.out" | grep -q '"degraded":true' \
  && fail "reload cycle lost passes to version skew"
grep -q '"type":"cluster_reload_commit"' "$WORK/telemetry2/events.jsonl" \
  || fail "no cluster_reload_commit event"
grep -q '"type":"cluster_reload_abort"' "$WORK/telemetry2/events.jsonl" \
  || fail "no cluster_reload_abort event"

echo "=== cluster_chaos: phase 4 (distributed tracing + cluster-wide metrics) ==="
FIFO4="$WORK/in4.fifo"
mkfifo "$FIFO4"
STUQ_FAKE_CLOCK=1 "$STUQ" serve --role router --shards 3 \
  --model "$WORK/model.stuq" --data "$WORK/flow.stuqd" \
  --worker-dir "$WORK/workers4" --max-queue 1000 \
  --restart-backoff-ms 200 --restart-backoff-max-ms 1600 \
  --telemetry-dir "$WORK/telemetry4" --telemetry-level trace \
  --health-dir "$WORK/health4" \
  <"$FIFO4" >"$WORK/trace.out" 2>"$WORK/trace.err" &
ROUTER4_PID=$!
exec 5>"$FIFO4"

await_trace() {
  want=$1
  what=$2
  i=0
  while [ "$(wc -l <"$WORK/trace.out")" -lt "$want" ]; do
    i=$((i + 1))
    [ "$i" -le "$AWAIT_TRIES" ] || fail "timed out waiting for $what ($want lines)"
    kill -0 "$ROUTER4_PID" 2>/dev/null || fail "trace router died waiting for $what"
    sleep 0.1
  done
}

printf '{"type":"healthz","id":"h4"}\n' >&5
await_trace 1 "trace healthz"
cat "$WORK/warm.ndjson" >&5
await_trace 13 "trace warmup"
# SIGKILL shard 2's worker, then storm: every request in flight before the
# supervisor restarts it loses shard 2's sample range.
WPID4=$(pgrep -f "workers4/worker-2.sock" | head -n 1)
[ -n "$WPID4" ] || fail "could not find shard 2's worker process"
kill -9 "$WPID4"
cat "$WORK/storm-a.ndjson" >&5
await_trace 25 "trace storm"
recovered4() {
  grep -q '"status":"healthy"' "$WORK/health4/health.json" 2>/dev/null \
    && grep -q '"shard":2,"state":"up","breaker":"closed","restarts":1' \
      "$WORK/health4/health.json" 2>/dev/null
}
i=0
until recovered4; do
  i=$((i + 1))
  [ "$i" -le "$RECOVER_TRIES" ] || fail "traced cluster did not recover shard 2"
  kill -0 "$ROUTER4_PID" 2>/dev/null || fail "trace router died during recovery"
  sleep 0.25
done
# All three workers are live again: the merged scrape must cover 3/3.
printf '{"type":"cluster-metrics","id":"cm"}\n' >&5
await_trace 26 "cluster-metrics scrape"
printf '{"type":"shutdown","id":"bye4"}\n' >&5
await_trace 27 "trace shutdown ack"
exec 5>&-
wait "$ROUTER4_PID" || fail "trace router exited nonzero"

# Closed type set still holds with tracing on (plus the metrics response),
# and every forecast carries its trace id in the meta object.
BAD4=$(grep -cvE '^\{"type":"(forecast|rejected|fallback|error|health|ack|metrics)"' "$WORK/trace.out" || true)
[ "$BAD4" -eq 0 ] || fail "$BAD4 traced response lines outside the closed type set"
grep -q '"id":"cm".*"counters":{' "$WORK/trace.out" || fail "no merged cluster-metrics response"
grep '"type":"forecast"' "$WORK/trace.out" | grep -vq '"trace":"' \
  && fail "untraced forecast response in a traced session"

# Worker telemetry landed in per-shard subdirectories and validates — shard
# 2's log is its post-restart incarnation (the SIGKILLed one never flushed).
sh ci/validate_events.sh "$WORK/telemetry4" "$STUQ"
for s in 0 1 2; do
  sh ci/validate_events.sh "$WORK/telemetry4/worker-$s" "$STUQ"
done

# The merged Prometheus export scraped every live worker and carries traffic.
grep -q '^# cluster-merged counters: router + 3/3 workers scraped' \
  "$WORK/telemetry4/cluster_metrics.prom" || fail "cluster_metrics.prom is not a 3/3 merge"
grep -Eq '^stuq_serve_requests_total [1-9]' "$WORK/telemetry4/cluster_metrics.prom" \
  || fail "merged export carries no request count"

# The joined timeline is strict-clean (no orphans, unclosed, or malformed
# spans) and attributes the lost sample range to the dead shard, typed.
"$STUQ" trace "$WORK/telemetry4" --tree --strict >"$WORK/timeline.txt" \
  || fail "stuq trace --strict rejected the traced session"
grep -q 'shard=2 status=failed reason=worker_down' "$WORK/timeline.txt" \
  || fail "timeline does not attribute the lost range to shard 2 with worker_down"
grep -q 'p99_ms' "$WORK/timeline.txt" || fail "timeline has no phase latency table"

echo "=== cluster_chaos: phase 5 (replicated shards + deterministic faultnet) ==="
"$STUQ" gen-requests --data "$WORK/flow.stuqd" --count 20 --mc 6 \
  --seed 500 --out "$WORK/rep.ndjson"

# (a) The fault plan and the replica selection are pure functions of the
# session seed: the same faulted stream answers byte-identically at 1/2/4
# threads and to a solo server, with zero degraded responses.
for t in 1 2 4; do
  STUQ_FAKE_CLOCK=1 STUQ_THREADS=$t "$STUQ" serve --role router --shards 2 --replicas 2 \
    --model "$WORK/model.stuq" --data "$WORK/flow.stuqd" --seed 71 \
    --worker-dir "$WORK/workers5-t$t" --max-queue 1000 --faultnet drop \
    --telemetry-dir "$WORK/telemetry5-t$t" \
    <"$WORK/rep.ndjson" >"$WORK/rep-t$t.out" 2>/dev/null
done
STUQ_FAKE_CLOCK=1 "$STUQ" serve --model "$WORK/model.stuq" --data "$WORK/flow.stuqd" \
  --seed 71 --max-queue 1000 --reload-poll-ms 0 \
  <"$WORK/rep.ndjson" >"$WORK/rep-solo.out" 2>/dev/null
cmp "$WORK/rep-t1.out" "$WORK/rep-t2.out" || fail "faulted responses differ between 1 and 2 threads"
cmp "$WORK/rep-t1.out" "$WORK/rep-t4.out" || fail "faulted responses differ between 1 and 4 threads"
cmp "$WORK/rep-t1.out" "$WORK/rep-solo.out" || fail "faulted responses differ from a solo server"
[ "$(grep -c '"type":"forecast"' "$WORK/rep-t1.out")" -eq 20 ] \
  || fail "expected 20 forecast responses from the faulted cluster"
grep -q '"degraded":true' "$WORK/rep-t1.out" \
  && fail "a dropped RPC lost passes despite a live sibling"
grep -q '"type":"cluster_failover".*"reason":"rpc_timeout"' "$WORK/telemetry5-t1/events.jsonl" \
  || fail "the drop plan produced no typed rpc_timeout failovers"

# (b) Fault plan plus a SIGKILLed victim replica, against a live session
# with tracing: the stream must stay full-fidelity throughout.
FIFO5="$WORK/in5.fifo"
mkfifo "$FIFO5"
STUQ_FAKE_CLOCK=1 "$STUQ" serve --role router --shards 2 --replicas 2 \
  --model "$WORK/model.stuq" --data "$WORK/flow.stuqd" --seed 71 \
  --worker-dir "$WORK/workers5" --max-queue 1000 --faultnet drop \
  --restart-backoff-ms 200 --restart-backoff-max-ms 1600 \
  --telemetry-dir "$WORK/telemetry5" --telemetry-level trace \
  --health-dir "$WORK/health5" \
  <"$FIFO5" >"$WORK/chaos5.out" 2>"$WORK/chaos5.err" &
ROUTER5_PID=$!
exec 6>"$FIFO5"

await_rep() {
  want=$1
  what=$2
  i=0
  while [ "$(wc -l <"$WORK/chaos5.out")" -lt "$want" ]; do
    i=$((i + 1))
    [ "$i" -le "$AWAIT_TRIES" ] || fail "timed out waiting for $what ($want lines)"
    kill -0 "$ROUTER5_PID" 2>/dev/null || fail "replicated router died waiting for $what"
    sleep 0.1
  done
}

printf '{"type":"healthz","id":"h5"}\n' >&6
await_rep 1 "replicated healthz"
grep -q '"replicas":\[{"replica":0,"role":"' "$WORK/chaos5.out" \
  || fail "healthz carries no per-replica detail"
grep -q '"fidelity":"full"' "$WORK/chaos5.out" || fail "healthy shards must read fidelity full"

cat "$WORK/warm.ndjson" >&6
await_rep 13 "replicated warmup"
# SIGKILL shard 1's *victim* replica (announced on stderr at spawn): its
# healthy sibling keeps the shard serviceable while the supervisor restarts
# it, so fidelity of the merged stream never drops.
V1=$(sed -n 's/.*faultnet drop victim shard=1 replica=\([0-9]*\).*/\1/p' "$WORK/chaos5.err" | head -n 1)
[ -n "$V1" ] || fail "router did not announce shard 1's faultnet victim"
WPID5=$(pgrep -f "workers5/worker-1-$V1.sock" | head -n 1)
[ -n "$WPID5" ] || fail "could not find shard 1's victim replica process"
kill -9 "$WPID5"
cat "$WORK/storm-a.ndjson" >&6
await_rep 25 "replicated storm"
recovered5() {
  grep -q '"status":"healthy"' "$WORK/health5/health.json" 2>/dev/null \
    && grep -q '"replica":'"$V1"',"role":"[a-z]*","state":"up","breaker":"closed","restarts":1' \
      "$WORK/health5/health.json" 2>/dev/null
}
i=0
until recovered5; do
  i=$((i + 1))
  [ "$i" -le "$RECOVER_TRIES" ] || fail "replicated cluster did not recover the killed victim"
  kill -0 "$ROUTER5_PID" 2>/dev/null || fail "replicated router died during recovery"
  sleep 0.25
done
cat "$WORK/post.ndjson" >&6
await_rep 31 "replicated post-recovery forecasts"
printf '{"type":"shutdown","id":"bye5"}\n' >&6
await_rep 32 "replicated shutdown ack"
exec 6>&-
wait "$ROUTER5_PID" || fail "replicated router exited nonzero"

# Full sample counts throughout: a dropped or dead victim always fails over
# to its sibling.
grep -q '"degraded":true' "$WORK/chaos5.out" \
  && fail "the replicated cluster degraded a response despite a live sibling"

# Byte identity against a fault-free control cluster over the same stream,
# modulo the three batching keys of the trailing "meta" object. The trace
# and span ids stay in, so they are compared too.
cat "$WORK/warm.ndjson" "$WORK/storm-a.ndjson" "$WORK/post.ndjson" >"$WORK/rep5-input.ndjson"
STUQ_FAKE_CLOCK=1 "$STUQ" serve --role router --shards 2 --replicas 2 \
  --model "$WORK/model.stuq" --data "$WORK/flow.stuqd" --seed 71 \
  --worker-dir "$WORK/workers5-ctl" --max-queue 1000 \
  --telemetry-dir "$WORK/telemetry5-ctl" --telemetry-level trace \
  <"$WORK/rep5-input.ndjson" >"$WORK/rep5-control.out" 2>/dev/null
STRIP='s/"batched":[a-z]*,"batch_size":[0-9]*,"cache_hit":[a-z]*,\{0,1\}//'
grep '"type":"forecast"' "$WORK/chaos5.out" | sed "$STRIP" >"$WORK/rep5-faulted.stripped"
grep '"type":"forecast"' "$WORK/rep5-control.out" | sed "$STRIP" >"$WORK/rep5-control.stripped"
[ "$(wc -l <"$WORK/rep5-faulted.stripped")" -eq 30 ] \
  || fail "expected 30 forecast responses from the replicated chaos session"
cmp "$WORK/rep5-faulted.stripped" "$WORK/rep5-control.stripped" \
  || fail "faulted replicated stream diverged from the fault-free control"

# Every injected drop is attributed: exactly one typed rpc_timeout failover
# per drop, and the event log passes the closed-schema validator.
INJ=$(grep -c '"type":"faultnet_inject".*"reason":"drop"' "$WORK/telemetry5/events.jsonl" || true)
FO=$(grep -c '"type":"cluster_failover".*"reason":"rpc_timeout"' "$WORK/telemetry5/events.jsonl" || true)
[ "$INJ" -gt 0 ] || fail "the live faultnet session injected nothing"
[ "$INJ" -eq "$FO" ] || fail "injected drops ($INJ) and rpc_timeout failovers ($FO) disagree"
sh ci/validate_events.sh "$WORK/telemetry5" "$STUQ"

# The trace join over router + 2×2 worker logs is strict-clean.
"$STUQ" trace "$WORK/telemetry5" --tree --strict >"$WORK/timeline5.txt" \
  || fail "stuq trace --strict rejected the replicated session"
grep -q 'p99_ms' "$WORK/timeline5.txt" || fail "replicated timeline has no latency table"

echo "cluster_chaos: OK"
