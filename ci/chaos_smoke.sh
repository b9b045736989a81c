#!/bin/sh
# Chaos smoke for the serving runtime (DESIGN.md §11).
#
# Phase 1 — determinism: the same degraded request stream, replayed under the
# fake clock at STUQ_THREADS=1/2/4, must produce byte-identical responses.
# Phase 2 — chaos: a long-lived server is hit with an oversized burst of
# partially NaN-poisoned requests, its watched model artifact is corrupted in
# place and then restored, and it is asked to shut down cleanly. The process
# must stay up throughout, shed/degrade per the documented contract, roll the
# bad artifact back, and leave a validating telemetry sink behind.
# Phase 3 — burst batching: a same-tick request storm served with coalescing
# and the forecast cache on must coalesce (batched:true), hit the cache for
# repeat ticks, and stay byte-identical at STUQ_THREADS=1/2/4.
# Phase 4 — cache coherence: a hot reload landing between two identical
# bursts must invalidate the cache — the first post-reload response is
# recomputed, never served from the old model's entries.
#
# usage: chaos_smoke.sh [stuq-binary] [work-dir]
set -eu

STUQ="${1:-./target/release/stuq}"
WORK="${2:-/tmp/stuq-chaos}"

fail() {
  echo "chaos_smoke: $1" >&2
  exit 1
}

rm -rf "$WORK"
mkdir -p "$WORK"

echo "=== chaos_smoke: fixtures ==="
"$STUQ" simulate --preset pems08 --node-frac 0.08 --step-frac 0.02 \
  --seed 41 --out "$WORK/flow.stuqd"
"$STUQ" train --data "$WORK/flow.stuqd" --epochs 1 --awa-epochs 2 \
  --batch 8 --mc 3 --seed 41 --out "$WORK/model.stuq"
cp "$WORK/model.stuq" "$WORK/model.bak"

echo "=== chaos_smoke: phase 1 (degraded-response determinism, threads 1/2/4) ==="
# deadline 3 under a 1 ms fake-clock step cuts an 8-sample run to 4 samples:
# every response must come back degraded, and byte-identically so at every
# thread count (per-request seeds make the streams order-independent too).
"$STUQ" gen-requests --data "$WORK/flow.stuqd" --count 40 --deadline-ms 3 \
  --mc 8 --seed 100 --out "$WORK/det.ndjson"
for t in 1 2 4; do
  STUQ_FAKE_CLOCK=1 STUQ_THREADS=$t "$STUQ" serve \
    --model "$WORK/model.stuq" --data "$WORK/flow.stuqd" \
    --max-queue 1000 --reload-poll-ms 0 --floor 2 \
    <"$WORK/det.ndjson" >"$WORK/det-t$t.out" 2>/dev/null
done
cmp "$WORK/det-t1.out" "$WORK/det-t2.out" || fail "responses differ between 1 and 2 threads"
cmp "$WORK/det-t1.out" "$WORK/det-t4.out" || fail "responses differ between 1 and 4 threads"
[ "$(grep -c '"type":"forecast"' "$WORK/det-t1.out")" -eq 40 ] \
  || fail "expected 40 forecast responses"
grep -q '"degraded":true' "$WORK/det-t1.out" || fail "deadline 3 must degrade the runs"
# Surrogate probe: Python's default json.dumps writes U+1F600 as the escaped
# UTF-16 pair \ud83d\ude00; the reader must decode it to one scalar and
# echo the id as raw UTF-8 (F0 9F 98 80).
printf '{"type":"healthz","id":"\\ud83d\\ude00"}\n' | "$STUQ" serve \
  --model "$WORK/model.stuq" --data "$WORK/flow.stuqd" --reload-poll-ms 0 \
  >"$WORK/surrogate.out" 2>/dev/null
grep -qF "$(printf '"id":"\360\237\230\200"')" "$WORK/surrogate.out" \
  || fail "surrogate-pair id not echoed as one scalar: $(cat "$WORK/surrogate.out")"
# Oversize probe: a healthz padded with spaces to one byte past
# proto::MAX_LINE_BYTES (1 MiB) gets exactly one typed bad_request instead
# of an answer, and is skipped; the next line is served.
big='{"type":"healthz","id":"too-long"}'
{
  printf '%s' "$big"
  head -c $((1048577 - ${#big})) /dev/zero | tr '\0' ' '
  printf '\n{"type":"healthz","id":"after"}\n'
} | "$STUQ" serve --model "$WORK/model.stuq" --data "$WORK/flow.stuqd" \
  --reload-poll-ms 0 >"$WORK/oversize.out" 2>/dev/null
[ "$(grep -c '"bad_request"' "$WORK/oversize.out")" -eq 1 ] \
  || fail "oversize line not answered with one bad_request: $(cat "$WORK/oversize.out")"
if grep -q '"id":"too-long"' "$WORK/oversize.out"; then
  fail "oversize line was read whole: $(cat "$WORK/oversize.out")"
fi
grep -q '"id":"after"' "$WORK/oversize.out" \
  || fail "no answer after the oversize line: $(cat "$WORK/oversize.out")"
echo "phase 1 OK: 40 degraded responses byte-identical across thread counts; surrogate-pair id echoed; oversize line answered"

echo "=== chaos_smoke: phase 2 (burst + corrupt reload + NaN inputs) ==="
# Oversized burst: 200 slow (mc 24) requests against a 4-deep queue, 20% of
# cells NaN-poisoned. The reader must shed with typed queue_full rejections
# and answer every line with exactly one response.
"$STUQ" gen-requests --data "$WORK/flow.stuqd" --count 200 --mc 24 \
  --nan-frac 0.2 --seed 500 --out "$WORK/burst.ndjson"

FIFO="$WORK/in.fifo"
mkfifo "$FIFO"
"$STUQ" serve --model "$WORK/model.stuq" --data "$WORK/flow.stuqd" \
  --max-queue 4 --reload-poll-ms 50 \
  --telemetry-dir "$WORK/telemetry" --health-dir "$WORK/health" \
  <"$FIFO" >"$WORK/chaos.out" 2>"$WORK/chaos.err" &
SERVE_PID=$!
exec 3>"$FIFO"

# Every request line gets exactly one response line; poll for that count.
await_lines() {
  want=$1
  what=$2
  i=0
  while [ "$(wc -l <"$WORK/chaos.out")" -lt "$want" ]; do
    i=$((i + 1))
    [ "$i" -le 300 ] || fail "timed out waiting for $what ($want lines)"
    kill -0 "$SERVE_PID" 2>/dev/null || fail "server died waiting for $what"
    sleep 0.1
  done
}

printf '{"type":"healthz","id":"h1"}\n' >&3
await_lines 1 "initial healthz"
grep -q '"type":"health"' "$WORK/chaos.out" || fail "no health response"

cat "$WORK/burst.ndjson" >&3
await_lines 201 "burst responses"

# Corrupt the watched artifact in place: the watcher must validate off the
# request path, refuse the swap, and keep serving the old model.
printf 'garbage trailing bytes' >>"$WORK/model.stuq"
sleep 1
# Restore: the next poll sees a healthy artifact and hot-swaps it back in.
cp "$WORK/model.bak" "$WORK/model.stuq"
sleep 1

"$STUQ" gen-requests --data "$WORK/flow.stuqd" --count 1 --mc 4 \
  --seed 900 --out "$WORK/after.ndjson"
cat "$WORK/after.ndjson" >&3
printf '{"type":"healthz","id":"h2"}\n' >&3
printf '{"type":"shutdown","id":"bye"}\n' >&3
await_lines 204 "post-reload traffic + shutdown ack"
exec 3>&-
wait "$SERVE_PID" || fail "server exited nonzero"

# Contract checks on the response stream.
BAD=$(grep -cvE '^\{"type":"(forecast|rejected|fallback|error|health|ack)"' "$WORK/chaos.out" || true)
[ "$BAD" -eq 0 ] || fail "$BAD response lines outside the closed type set"
grep -q '"reason":"queue_full"' "$WORK/chaos.out" || fail "burst produced no queue_full sheds"
grep -q '"reason":"non_finite_input"' "$WORK/chaos.out" || fail "NaN inputs produced no typed errors"
grep -q '"id":"bye"' "$WORK/chaos.out" || fail "shutdown was not acknowledged"
# The post-restore forecast proves the process survived the corrupt reload.
tail -n 3 "$WORK/chaos.out" | grep -q '"type":"forecast"' || fail "no forecast after reload cycle"

# Event-log checks: the corrupt artifact must be a rollback, the restore a
# reload, and the whole sink must pass the closed-schema validator.
grep -q '"type":"reload_rollback"' "$WORK/telemetry/events.jsonl" \
  || fail "no reload_rollback event for the corrupt artifact"
grep -q '"type":"reload_ok"' "$WORK/telemetry/events.jsonl" \
  || fail "no reload_ok event for the restored artifact"
sh ci/validate_events.sh "$WORK/telemetry" "$STUQ"
[ -s "$WORK/health/health.json" ] || fail "health.json missing"
grep -q '"status"' "$WORK/health/health.json" || fail "health.json has no status"

echo "=== chaos_smoke: phase 3 (burst batching determinism, threads 1/2/4) ==="
# --burst 8 emits 3 groups of 8 identical (window, tick) seedless requests —
# the storm shape the coalescer exists for. With --batch-max 4 each group
# arrives as two deterministic batches under the fake clock: the first
# shares one MC run, the second is answered from the cache. Same bytes at
# every thread count, 12 of the 24 responses from the cache.
"$STUQ" gen-requests --data "$WORK/flow.stuqd" --count 24 --mc 8 \
  --burst 8 --seed 300 --out "$WORK/storm.ndjson"
for t in 1 2 4; do
  STUQ_FAKE_CLOCK=1 STUQ_THREADS=$t "$STUQ" serve \
    --model "$WORK/model.stuq" --data "$WORK/flow.stuqd" \
    --max-queue 1000 --reload-poll-ms 0 --floor 2 \
    --batch-max 4 --cache-ttl-ms 1000000 \
    <"$WORK/storm.ndjson" >"$WORK/storm-t$t.out" 2>/dev/null
done
cmp "$WORK/storm-t1.out" "$WORK/storm-t2.out" \
  || fail "batched responses differ between 1 and 2 threads"
cmp "$WORK/storm-t1.out" "$WORK/storm-t4.out" \
  || fail "batched responses differ between 1 and 4 threads"
[ "$(grep -c '"type":"forecast"' "$WORK/storm-t1.out")" -eq 24 ] \
  || fail "expected 24 forecast responses to the storm"
grep -q '"batched":true,"batch_size":4' "$WORK/storm-t1.out" \
  || fail "the storm never coalesced into 4-request batches"
[ "$(grep -c '"cache_hit":true' "$WORK/storm-t1.out")" -eq 12 ] \
  || fail "expected the second half of every burst group to hit the cache"
echo "phase 3 OK: storm coalesced, 12/24 cache hits, byte-identical across thread counts"

echo "=== chaos_smoke: phase 4 (reload-during-burst cache coherence) ==="
# Two servings of the same 8-request burst with a hot model swap in between:
# the swap must drop the cache, so wave 2 recomputes under the new model and
# only wave 3 (no reload in between) is answered entirely from the cache.
"$STUQ" train --data "$WORK/flow.stuqd" --epochs 1 --awa-epochs 2 \
  --batch 8 --mc 3 --seed 43 --out "$WORK/model-b.stuq"
cp "$WORK/model.bak" "$WORK/live.stuq"
"$STUQ" gen-requests --data "$WORK/flow.stuqd" --count 8 --mc 8 \
  --burst 8 --seed 310 --out "$WORK/wave.ndjson"

FIFO2="$WORK/in2.fifo"
mkfifo "$FIFO2"
"$STUQ" serve --model "$WORK/live.stuq" --data "$WORK/flow.stuqd" \
  --max-queue 1000 --reload-poll-ms 50 \
  --batch-max 4 --cache-ttl-ms 1000000 \
  --telemetry-dir "$WORK/telemetry2" \
  <"$FIFO2" >"$WORK/coherence.out" 2>"$WORK/coherence.err" &
SERVE2_PID=$!
exec 4>"$FIFO2"

await_coherence() {
  want=$1
  what=$2
  i=0
  while [ "$(wc -l <"$WORK/coherence.out")" -lt "$want" ]; do
    i=$((i + 1))
    [ "$i" -le 300 ] || fail "timed out waiting for $what ($want lines)"
    kill -0 "$SERVE2_PID" 2>/dev/null || fail "server died waiting for $what"
    sleep 0.1
  done
}

cat "$WORK/wave.ndjson" >&4
await_coherence 8 "wave 1"
cp "$WORK/model-b.stuq" "$WORK/live.stuq"
sleep 1
cat "$WORK/wave.ndjson" >&4
await_coherence 16 "wave 2"
cat "$WORK/wave.ndjson" >&4
await_coherence 24 "wave 3"
exec 4>&-
wait "$SERVE2_PID" || fail "coherence server exited nonzero"

grep -q '"type":"reload_ok"' "$WORK/telemetry2/events.jsonl" \
  || fail "the mid-burst model swap never reloaded"
grep -q '"type":"cache_invalidate".*"reason":"reload"' "$WORK/telemetry2/events.jsonl" \
  || fail "the reload did not invalidate the cache"
# Wave 1 ends with hits (everything after its first batch shares the entry).
head -n 8 "$WORK/coherence.out" | grep -q '"cache_hit":true' \
  || fail "wave 1 never warmed the cache"
# First post-reload response must be recomputed, not the old model's entry.
sed -n '9p' "$WORK/coherence.out" | grep -q '"cache_hit":false' \
  || fail "first post-reload response was served from the stale cache"
# Wave 3 is the same tick again with no reload in between: all hits.
[ "$(tail -n 8 "$WORK/coherence.out" | grep -c '"cache_hit":true')" -eq 8 ] \
  || fail "wave 3 should be answered entirely from the re-primed cache"
echo "phase 4 OK: reload dropped the cache; no stale forecasts served"

echo "chaos_smoke: OK"
