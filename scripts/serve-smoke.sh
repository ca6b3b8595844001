#!/usr/bin/env bash
# End-to-end smoke test of the serving subsystem against a real binary:
# refuse two bad flag combinations, start gsketch-serve, NDJSON-ingest a
# small stream, issue a batched query, trigger a snapshot, restore it, and
# shut down gracefully. CI runs this with a race-instrumented build.
set -euo pipefail

BIN=${1:-bin/gsketch-serve}
WIRECLI=${2:-bin/gsketch-wire}
ADDR=${SMOKE_ADDR:-127.0.0.1:7171}
WADDR=${SMOKE_WIRE_ADDR:-127.0.0.1:7172}
BASE="http://$ADDR"
TMP=$(mktemp -d)
SMOKE=serve-smoke
# shellcheck source=scripts/smoke-lib.sh
source "$(dirname "$0")/smoke-lib.sh"

# A small partitioning sample: hub sources with repeated edges.
for i in $(seq 0 199); do
  echo "$((i % 10)) $((100 + i % 40)) 1 $i"
done > "$TMP/sample.txt"

# Refused flag combinations: each must exit non-zero before serving and
# say why. timeout bounds a binary that wrongly starts serving instead.
refused() {
  local want=$1 out
  shift
  if out=$(timeout 20 "$BIN" "$@" 2>&1); then
    fail "gsketch-serve $* exited 0, want a refusal"
  fi
  grep -qF -- "$want" <<<"$out" || fail "gsketch-serve $*: output '$out' lacks '$want'"
}
refused "pick exactly one of -restore, -sample or -global" \
  -addr "$ADDR" -sample "$TMP/sample.txt" -global
refused "-adapt is engine-only" -addr "$ADDR" -tenants -tenant-dir "$TMP/tenants" -adapt

"$BIN" -addr "$ADDR" -wire-addr "$WADDR" -sample "$TMP/sample.txt" \
  -snapshot "$TMP/state.gsk" -workers 2 -batch 64 &
PID=$!

wait_healthy

# NDJSON-ingest: edge (1,101) five times, (2,102) three times.
{
  for _ in 1 2 3 4 5; do echo '{"src":1,"dst":101}'; done
  for _ in 1 2 3; do echo '{"src":2,"dst":102,"weight":1}'; done
} > "$TMP/stream.ndjson"
ingest=$(curl -sf -X POST --data-binary @"$TMP/stream.ndjson" "$BASE/ingest?sync=1")
grep -q '"accepted":8' <<<"$ingest" || fail "ingest reply: $ingest"

# Batched query with read-your-writes: both estimates must come back with
# bounds attached (CountMin never underestimates, so ≥ the true counts).
query='{"queries":[{"src":1,"dst":101},{"src":2,"dst":102}],"sync":true}'
answer=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$query" "$BASE/query")
est1=$(grep -o '"estimate":[0-9]*' <<<"$answer" | head -1 | cut -d: -f2)
est2=$(grep -o '"estimate":[0-9]*' <<<"$answer" | sed -n 2p | cut -d: -f2)
[[ -n "$est1" && "$est1" -ge 5 ]] || fail "estimate for (1,101) = '$est1', want >= 5 ($answer)"
[[ -n "$est2" && "$est2" -ge 3 ]] || fail "estimate for (2,102) = '$est2', want >= 3 ($answer)"
grep -q '"error_bound"' <<<"$answer" || fail "no error bound in $answer"
grep -q '"confidence"' <<<"$answer" || fail "no confidence in $answer"

# Snapshot: save to disk, then restore it back in.
save=$(curl -sf -X POST "$BASE/snapshot/save")
[[ -s "$TMP/state.gsk" ]] || fail "snapshot file missing after save: $save"
restore=$(curl -sf -X POST "$BASE/snapshot/restore")
grep -q '"stream_total":8' <<<"$restore" || fail "restore reply: $restore"

# The restored server answers the same query identically.
answer2=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$query" "$BASE/query")
[[ "$answer2" == "$answer" ]] || fail "answers differ after restore: $answer vs $answer2"

# Stats carry the counters.
stats=$(curl -sf "$BASE/stats")
grep -q '"edges_accepted":8' <<<"$stats" || fail "stats: $stats"
grep -q '"snapshots_saved":1' <<<"$stats" || fail "stats: $stats"
agree queue_cap gsketch_ingest_queue_cap inflight gsketch_ingest_inflight

# ---------------------------------------------------------------------------
# Observability surface: /metrics is Prometheus text exposition derived
# from the same registry as /stats, and /readyz tracks state swaps.

curl -sf "$BASE/readyz" >/dev/null || fail "readyz not 200 on an idle server"
metrics=$(curl -sf "$BASE/metrics")
grep -q '^# HELP gsketch_edges_accepted_total ' <<<"$metrics" || fail "metrics missing HELP: $metrics"
grep -q '^# TYPE gsketch_edges_accepted_total counter' <<<"$metrics" || fail "metrics missing TYPE"
grep -q '^gsketch_edges_accepted_total 8$' <<<"$metrics" || fail "metrics counter disagrees with /stats"
grep -q '^# TYPE gsketch_http_request_duration_seconds histogram' <<<"$metrics" || fail "metrics missing route histogram"
grep -q 'gsketch_http_request_duration_seconds_bucket{route="POST /ingest",le="+Inf"}' <<<"$metrics" \
  || fail "route histogram missing +Inf terminal bucket"
grep -q '^gsketch_ready 1$' <<<"$metrics" || fail "gsketch_ready gauge not 1"

# Readiness flips during a restore: stream the snapshot body through a
# FIFO so the swap window stays open while we poll /readyz.
mkfifo "$TMP/slow-restore"
curl -s -o "$TMP/restore-reply" -X POST -T "$TMP/slow-restore" \
  -H 'Content-Type: application/octet-stream' "$BASE/snapshot/restore" &
CURL_PID=$!
exec 9>"$TMP/slow-restore" # hold the writer open, send nothing yet
flipped=""
for _ in $(seq 1 100); do
  code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/readyz")
  if [[ "$code" == "503" ]]; then flipped=1; break; fi
  sleep 0.05
done
[[ -n "$flipped" ]] || fail "readyz never flipped to 503 during a streaming restore"
curl -sf "$BASE/healthz" >/dev/null || fail "healthz must stay 200 during restore"
cat "$TMP/state.gsk" >&9
exec 9>&-
wait "$CURL_PID" || fail "streaming restore failed: $(cat "$TMP/restore-reply")"
grep -q '"stream_total":8' "$TMP/restore-reply" || fail "streaming restore reply: $(cat "$TMP/restore-reply")"
curl -sf "$BASE/readyz" >/dev/null || fail "readyz not back to 200 after restore"

# ---------------------------------------------------------------------------
# Binary wire protocol against the same server: ingest two more copies of
# (1,101) and one of (2,102) over TCP, query them back, snapshot the mixed
# state and restore it.

printf '1 101 1 0\n1 101 1 1\n2 102 1 2\n' > "$TMP/wire-stream.txt"
wi=$("$WIRECLI" -addr "$WADDR" ingest "$TMP/wire-stream.txt")
grep -q 'ingested 3 edges' <<<"$wi" || fail "wire ingest reply: $wi"

# (1,101) now has 5 NDJSON + 2 wire arrivals; the wire answer carries
# "src dst estimate error_bound confidence partition".
wq=$("$WIRECLI" -addr "$WADDR" query 1 101)
west=$(awk '{print $3}' <<<"$wq")
[[ -n "$west" && "$west" -ge 7 ]] || fail "wire estimate for (1,101) = '$west', want >= 7 ($wq)"
awk '{exit !($4 > 0 && $5 > 0)}' <<<"$wq" || fail "wire answer missing bounds: $wq"

# A results frame sends the batch's stream total and confidence once: a
# three-query reply is an 8-byte frame header, a 16-byte batch header and
# three 24-byte records, 96 bytes (the version-1 layout wrote 128). One
# query cannot tell the layouts apart: both write 48 bytes.
wire_bytes_out() { curl -sf "$BASE/stats" | grep -o '"wire_bytes_out":[0-9]*' | cut -d: -f2; }
out0=$(wire_bytes_out)
wq3=$("$WIRECLI" -addr "$WADDR" query 1 101 2 102 1 102)
out1=$(wire_bytes_out)
[[ $(wc -l <<<"$wq3") -eq 3 ]] || fail "three-query wire answer: $wq3"
[[ $((out1 - out0)) -eq 96 ]] || fail "three-query wire reply moved wire_bytes_out by $((out1 - out0)), want 96"

# Snapshot the mixed JSON+wire state and restore it; the wire answer must
# not change.
curl -sf -X POST "$BASE/snapshot/save" >/dev/null
restore=$(curl -sf -X POST "$BASE/snapshot/restore")
grep -q '"stream_total":11' <<<"$restore" || fail "post-wire restore reply: $restore"
wq2=$("$WIRECLI" -addr "$WADDR" query 1 101)
[[ "$wq2" == "$wq" ]] || fail "wire answers differ after restore: $wq vs $wq2"

# Wire counters surface in /stats.
stats=$(curl -sf "$BASE/stats")
grep -q '"wire_decode_errors":0' <<<"$stats" || fail "wire stats: $stats"
grep -Eq '"wire_frames":[1-9]' <<<"$stats" || fail "wire stats: $stats"
grep -Eq '"wire_bytes_in":[1-9]' <<<"$stats" || fail "wire stats: $stats"
grep -Eq '"wire_bytes_out":[1-9]' <<<"$stats" || fail "wire stats: $stats"

# Each of the three gsketch-wire query invocations above (wq, wq3, wq2)
# opened a fresh connection, and a connection's first query frame has no
# cost estimate yet, so it wakes a poller: three wakes, on both endpoints.
grep -q '"wire_poller_wakes":3[,}]' <<<"$stats" || fail "wire_poller_wakes after 3 wire query invocations: $stats"
grep -q '^# TYPE gsketch_wire_poller_wakes_total counter' <<<"$(curl -sf "$BASE/metrics")" \
  || fail "metrics missing gsketch_wire_poller_wakes_total"
agree wire_poller_wakes gsketch_wire_poller_wakes_total

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$PID"
if ! wait "$PID"; then
  fail "server exited non-zero on SIGTERM"
fi
PID=""

# ---------------------------------------------------------------------------
# Global Sketch baseline: a leafless gSketch snapshots and restores like a
# partitioned one, on demand and on exit.

"$BIN" -addr "$ADDR" -global -snapshot "$TMP/global.gsk" -snapshot-on-exit \
  -workers 2 -batch 64 &
PID=$!
wait_healthy "global server"

ingest=$(curl -sf -X POST --data-binary @"$TMP/stream.ndjson" "$BASE/ingest?sync=1")
grep -q '"accepted":8' <<<"$ingest" || fail "global ingest reply: $ingest"
answer=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$query" "$BASE/query")
est1=$(grep -o '"estimate":[0-9]*' <<<"$answer" | head -1 | cut -d: -f2)
[[ -n "$est1" && "$est1" -ge 5 ]] || fail "global estimate for (1,101) = '$est1', want >= 5 ($answer)"
grep -q '"outlier":true' <<<"$answer" || fail "global answers are not outlier answers: $answer"

save=$(curl -sf -X POST "$BASE/snapshot/save") || fail "global snapshot save failed"
[[ -s "$TMP/global.gsk" ]] || fail "global snapshot file missing after save: $save"
restore=$(curl -sf -X POST "$BASE/snapshot/restore") || fail "global snapshot restore failed"
grep -q '"partitions":0' <<<"$restore" || fail "global restore reply: $restore"
grep -q '"stream_total":8' <<<"$restore" || fail "global restore reply: $restore"
answer2=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$query" "$BASE/query")
[[ "$answer2" == "$answer" ]] || fail "global answers differ after restore: $answer vs $answer2"

rm -f "$TMP/global.gsk"
kill -TERM "$PID"
if ! wait "$PID"; then
  fail "global server exited non-zero on SIGTERM"
fi
PID=""
[[ -s "$TMP/global.gsk" ]] || fail "no global snapshot written on exit"

# ---------------------------------------------------------------------------
# Adaptive chain flow: ingest -> workload shift -> POST /repartition ->
# query -> snapshot -> restore of a multi-generation chain.

"$BIN" -addr "$ADDR" -adapt -sample "$TMP/sample.txt" -snapshot "$TMP/chain.gsk" \
  -workers 2 -batch 64 &
PID=$!
wait_healthy "adaptive server"

# Ingest known-source traffic, then a burst from sources the partitioning
# sample never saw — the drifted stream the next generation must cover.
{
  for _ in 1 2 3 4 5; do echo '{"src":1,"dst":101}'; done
  for _ in 1 2 3 4; do echo '{"src":500,"dst":7}'; done
} > "$TMP/shifted.ndjson"
ingest=$(curl -sf -X POST --data-binary @"$TMP/shifted.ndjson" "$BASE/ingest?sync=1")
grep -q '"accepted":9' <<<"$ingest" || fail "adaptive ingest reply: $ingest"

# Shifted query workload: hammer the unknown source so the recorder sample
# diverges from the build-time baseline.
shiftq='{"queries":[{"src":500,"dst":7},{"src":500,"dst":8}],"sync":true}'
for _ in 1 2 3 4 5; do
  curl -sf -X POST -H 'Content-Type: application/json' -d "$shiftq" "$BASE/query" >/dev/null
done

# On-demand repartition: a second generation hot-swaps in.
repart=$(curl -sf -X POST "$BASE/repartition")
grep -q '"generations":2' <<<"$repart" || fail "repartition reply: $repart"

# Post-swap, answers still cover the pre-swap stream (generations sum):
# edge (1,101) was ingested before the swap and must still estimate >= 5.
q='{"queries":[{"src":1,"dst":101},{"src":500,"dst":7}],"sync":true}'
ans=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$q" "$BASE/query")
est=$(grep -o '"estimate":[0-9]*' <<<"$ans" | head -1 | cut -d: -f2)
[[ -n "$est" && "$est" -ge 5 ]] || fail "post-swap estimate for (1,101) = '$est', want >= 5 ($ans)"

# Ingest through the new head, then snapshot the full chain and restore it.
echo '{"src":500,"dst":7}' | curl -sf -X POST --data-binary @- "$BASE/ingest?sync=1" >/dev/null
curl -sf -X POST "$BASE/snapshot/save" >/dev/null
[[ -s "$TMP/chain.gsk" ]] || fail "chain snapshot missing after save"
restore=$(curl -sf -X POST "$BASE/snapshot/restore")
grep -q '"generations":2' <<<"$restore" || fail "chain restore reply: $restore"
grep -q '"stream_total":10' <<<"$restore" || fail "chain restore total: $restore"

# The restored chain answers identically, and /stats reports the chain.
ans2=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$q" "$BASE/query")
est2=$(grep -o '"estimate":[0-9]*' <<<"$ans2" | head -1 | cut -d: -f2)
[[ "$est2" == "$est" ]] || fail "answers differ after chain restore: $est vs $est2"
stats=$(curl -sf "$BASE/stats")
grep -q '"generations":2' <<<"$stats" || fail "adaptive stats: $stats"
grep -q '"repartition_requests":1' <<<"$stats" || fail "adaptive stats: $stats"

kill -TERM "$PID"
if ! wait "$PID"; then
  fail "adaptive server exited non-zero on SIGTERM"
fi
PID=""

# ---------------------------------------------------------------------------
# Generation lifecycle: pivot twice to a three-generation chain with cold
# generations tiered to disk, fold the two oldest via POST /compact, and
# verify answers, gauges and the snapshot round-trip. The compaction flags
# mount the background manager; the long interval keeps its ticker idle so
# the on-demand fold is the one observed.

"$BIN" -addr "$ADDR" -adapt -sample "$TMP/sample.txt" -snapshot "$TMP/lifecycle.gsk" \
  -compact-max-gens 8 -compact-interval 1h -tier-dir "$TMP/tiers" -tier-resident 1 \
  -workers 2 -batch 64 &
PID=$!
wait_healthy "lifecycle server"

# Three phases split by two pivots; the same edge keeps arriving so the
# folded chain must still sum every phase's contribution.
for phase in 1 2 3; do
  {
    for _ in 1 2 3 4; do echo '{"src":1,"dst":101}'; done
    echo "{\"src\":$((600 + phase)),\"dst\":9}"
  } | curl -sf -X POST --data-binary @- "$BASE/ingest?sync=1" >/dev/null
  if [[ "$phase" != "3" ]]; then
    repart=$(curl -sf -X POST "$BASE/repartition")
    grep -q "\"generations\":$((phase + 1))" <<<"$repart" || fail "lifecycle pivot $phase: $repart"
  fi
done

# Under -tier-resident 1 the second frozen generation spills to disk.
stats=$(curl -sf "$BASE/stats")
grep -Eq '"tiered_generations":[1-9]' <<<"$stats" || fail "no tiered generations before compact: $stats"
grep -Eq '"tiered_bytes":[1-9]' <<<"$stats" || fail "no tiered bytes before compact: $stats"

# Fold the two oldest frozen generations: 3 -> 2.
compact=$(curl -sf -X POST "$BASE/compact")
grep -q '"folded":2' <<<"$compact" || fail "compact reply: $compact"
grep -q '"generations":2' <<<"$compact" || fail "compact reply: $compact"

# The folded chain still covers all three phases: (1,101) arrived 12 times.
q='{"queries":[{"src":1,"dst":101}],"sync":true}'
ans=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$q" "$BASE/query")
est=$(grep -o '"estimate":[0-9]*' <<<"$ans" | head -1 | cut -d: -f2)
[[ -n "$est" && "$est" -ge 12 ]] || fail "post-compact estimate for (1,101) = '$est', want >= 12 ($ans)"

# Lifecycle gauges surface in /stats.
stats=$(curl -sf "$BASE/stats")
grep -q '"compactions":1' <<<"$stats" || fail "lifecycle stats: $stats"
grep -q '"compacted_from":3' <<<"$stats" || fail "lifecycle stats: $stats"
grep -q '"resident_generations"' <<<"$stats" || fail "lifecycle stats: $stats"

# Snapshot the folded chain and restore it: lineage and answers survive.
curl -sf -X POST "$BASE/snapshot/save" >/dev/null
[[ -s "$TMP/lifecycle.gsk" ]] || fail "lifecycle snapshot missing after save"
restore=$(curl -sf -X POST "$BASE/snapshot/restore")
grep -q '"generations":2' <<<"$restore" || fail "lifecycle restore reply: $restore"
ans2=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$q" "$BASE/query")
est2=$(grep -o '"estimate":[0-9]*' <<<"$ans2" | head -1 | cut -d: -f2)
[[ "$est2" == "$est" ]] || fail "answers differ after lifecycle restore: $est vs $est2"

kill -TERM "$PID"
if ! wait "$PID"; then
  fail "lifecycle server exited non-zero on SIGTERM"
fi
PID=""

# ---------------------------------------------------------------------------
# Time windows: with -window-span the generations are windows of stream
# time. Ingest timestamped edges over windows 0, 1 and 3, answer
# /query/window, then save and restore the windows and answer identically.

"$BIN" -addr "$ADDR" -window-span 100 -window-sample 64 -sample "$TMP/sample.txt" \
  -snapshot "$TMP/windows.gsk" -workers 2 -batch 64 &
PID=$!
wait_healthy "windowed server"

# (1,101) three times in window 0, twice in window 1 and once in window 3.
for t in 5 10 20 150 160 350; do echo "{\"src\":1,\"dst\":101,\"time\":$t}"; done > "$TMP/timed.ndjson"
ingest=$(curl -sf -X POST --data-binary @"$TMP/timed.ndjson" "$BASE/ingest?sync=1")
grep -q '"accepted":6' <<<"$ingest" || fail "windowed ingest reply: $ingest"

wq='{"queries":[{"src":1,"dst":101}],"t1":0,"t2":199}'
wans=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$wq" "$BASE/query/window")
wv=$(grep -o '"values":\[[0-9]*' <<<"$wans" | cut -d[ -f2)
[[ -n "$wv" && "$wv" -ge 5 ]] || fail "window estimate over [0, 199] = '$wv', want >= 5 ($wans)"

curl -sf -X POST "$BASE/snapshot/save" >/dev/null
[[ -s "$TMP/windows.gsk" ]] || fail "windowed snapshot missing after save"
restore=$(curl -sf -X POST "$BASE/snapshot/restore") || fail "windowed snapshot restore failed"
grep -q '"generations":3' <<<"$restore" || fail "windowed restore reply: $restore"
grep -q '"stream_total":6' <<<"$restore" || fail "windowed restore total: $restore"
wans2=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$wq" "$BASE/query/window")
[[ "$wans2" == "$wans" ]] || fail "window answers differ after restore: $wans vs $wans2"

kill -TERM "$PID"
if ! wait "$PID"; then
  fail "windowed server exited non-zero on SIGTERM"
fi
PID=""

echo "serve-smoke: OK"
