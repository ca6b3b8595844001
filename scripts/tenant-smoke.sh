#!/usr/bin/env bash
# End-to-end smoke test of the multi-tenant serving mode against a real
# binary: admin API lifecycle, per-tenant ingest/query isolation, quota
# enforcement without cross-tenant shed, the wire tenant-select flow,
# tenant-labeled metrics, then a restart under a resident cap of one to
# force snapshot-eviction and transparent reopen. CI runs this with a
# race-instrumented build.
set -euo pipefail

BIN=${1:-bin/gsketch-serve}
WIRECLI=${2:-bin/gsketch-wire}
ADDR=${SMOKE_ADDR:-127.0.0.1:7271}
WADDR=${SMOKE_WIRE_ADDR:-127.0.0.1:7272}
BASE="http://$ADDR"
TMP=$(mktemp -d)
SMOKE=tenant-smoke
# shellcheck source=scripts/smoke-lib.sh
source "$(dirname "$0")/smoke-lib.sh"

# ---------------------------------------------------------------------------
# Phase 1: uncapped registry — admin API, isolation, quotas, wire select.

"$BIN" -addr "$ADDR" -wire-addr "$WADDR" -tenants -tenant-dir "$TMP/tenants" \
  -workers 2 -batch 64 &
PID=$!
wait_healthy

# Admin lifecycle: create twice (201 then 200 idempotent update), list, 404.
code=$(curl -s -o "$TMP/put1" -w '%{http_code}' -X PUT "$BASE/t/alpha")
[[ "$code" == "201" ]] || fail "PUT /t/alpha: $code $(cat "$TMP/put1")"
code=$(curl -s -o /dev/null -w '%{http_code}' -X PUT "$BASE/t/alpha")
[[ "$code" == "200" ]] || fail "re-PUT /t/alpha: $code, want 200 update"
curl -sf -X PUT "$BASE/t/beta" >/dev/null || fail "PUT /t/beta"
list=$(curl -sf "$BASE/t")
grep -q '"name":"alpha"' <<<"$list" || fail "list missing alpha: $list"
grep -q '"name":"beta"' <<<"$list" || fail "list missing beta: $list"
code=$(curl -s -o "$TMP/ghost" -w '%{http_code}' "$BASE/t/ghost")
[[ "$code" == "404" ]] || fail "GET /t/ghost: $code"
grep -q '"code":"tenant_not_found"' "$TMP/ghost" || fail "ghost body: $(cat "$TMP/ghost")"

# Bad tenant names are rejected, not created.
code=$(curl -s -o /dev/null -w '%{http_code}' -X PUT "$BASE/t/bad%20name")
[[ "$code" == "400" ]] || fail "PUT bad name: $code, want 400"

# Isolation: alpha sees (1,101) five times, beta sees (2,202) three times.
for _ in 1 2 3 4 5; do echo '{"src":1,"dst":101}'; done > "$TMP/alpha.ndjson"
for _ in 1 2 3; do echo '{"src":2,"dst":202}'; done > "$TMP/beta.ndjson"
ingest=$(curl -sf -X POST --data-binary @"$TMP/alpha.ndjson" "$BASE/t/alpha/ingest?sync=1")
grep -q '"accepted":5' <<<"$ingest" || fail "alpha ingest: $ingest"
ingest=$(curl -sf -X POST --data-binary @"$TMP/beta.ndjson" "$BASE/t/beta/ingest?sync=1")
grep -q '"accepted":3' <<<"$ingest" || fail "beta ingest: $ingest"

q_alpha='{"queries":[{"src":1,"dst":101}],"sync":true}'
q_beta='{"queries":[{"src":2,"dst":202}],"sync":true}'
est() { grep -o '"estimate":[0-9]*' <<<"$1" | head -1 | cut -d: -f2; }
ans=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$q_alpha" "$BASE/t/alpha/query")
[[ "$(est "$ans")" -ge 5 ]] || fail "alpha estimate: $ans"
# Beta never saw alpha's edge: its estimate must be 0, not 5.
ans=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$q_alpha" "$BASE/t/beta/query")
[[ "$(est "$ans")" == "0" ]] || fail "cross-tenant bleed into beta: $ans"
ans=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$q_beta" "$BASE/t/beta/query")
[[ "$(est "$ans")" -ge 3 ]] || fail "beta estimate: $ans"

# Data-path requests against unknown tenants are typed 404s.
code=$(curl -s -o "$TMP/g404" -w '%{http_code}' -X POST \
  -H 'Content-Type: application/json' -d "$q_alpha" "$BASE/t/ghost/query")
[[ "$code" == "404" ]] || fail "query unknown tenant: $code"
grep -q '"code":"tenant_not_found"' "$TMP/g404" || fail "unknown-tenant body: $(cat "$TMP/g404")"

# Quotas: a nearly-zero refill rate with burst 2 accepts exactly the
# two-edge prefix and cuts the rest with a 429 — while alpha's traffic
# keeps flowing untouched.
curl -sf -X PUT -d '{"max_edges_per_sec":0.001,"burst":2}' "$BASE/t/limited" >/dev/null \
  || fail "PUT /t/limited"
for _ in 1 2 3 4 5 6 7 8 9 10; do echo '{"src":3,"dst":303}'; done > "$TMP/limited.ndjson"
code=$(curl -s -o "$TMP/shed" -w '%{http_code}' -X POST \
  --data-binary @"$TMP/limited.ndjson" "$BASE/t/limited/ingest?sync=1")
[[ "$code" == "429" ]] || fail "over-quota ingest: $code $(cat "$TMP/shed")"
grep -q '"accepted":2' "$TMP/shed" || fail "accepted prefix: $(cat "$TMP/shed")"
grep -q '"code":"rate_limited"' "$TMP/shed" || fail "shed body: $(cat "$TMP/shed")"
ingest=$(curl -sf -X POST --data-binary @"$TMP/alpha.ndjson" "$BASE/t/alpha/ingest?sync=1")
grep -q '"accepted":5' <<<"$ingest" || fail "alpha shed by limited's quota: $ingest"

# Wire protocol: work before a tenant-select is refused; after selecting,
# each connection is bound to its tenant's engine.
if "$WIRECLI" -addr "$WADDR" ping >/dev/null 2>&1; then
  fail "wire ping without tenant-select must fail"
fi
wq=$("$WIRECLI" -addr "$WADDR" -tenant alpha query 1 101)
[[ "$(awk '{print $3}' <<<"$wq")" -ge 10 ]] || fail "wire alpha estimate: $wq"
wq=$("$WIRECLI" -addr "$WADDR" -tenant beta query 1 101)
[[ "$(awk '{print $3}' <<<"$wq")" == "0" ]] || fail "wire cross-tenant bleed: $wq"
if "$WIRECLI" -addr "$WADDR" -tenant ghost ping >/dev/null 2>&1; then
  fail "wire select of unknown tenant must fail"
fi

# Tenant-labeled metrics and the registry /stats block.
metrics=$(curl -sf "$BASE/metrics")
grep -q '^gsketch_tenants 3$' <<<"$metrics" || fail "gsketch_tenants gauge: $metrics"
grep -q 'gsketch_tenant_edges_accepted_total{tenant="alpha"} 10' <<<"$metrics" \
  || fail "alpha labeled counter missing"
grep -q 'gsketch_tenant_rate_limited_total{tenant="limited"} ' <<<"$metrics" \
  || fail "limited rate-limit counter missing"
stats=$(curl -sf "$BASE/stats")
grep -q '"tenants":3' <<<"$stats" || fail "stats: $stats"
agree tenants gsketch_tenants

kill -TERM "$PID"
wait "$PID" || fail "server exited non-zero on SIGTERM"
PID=""

# ---------------------------------------------------------------------------
# Phase 2: restart over the same directory with a resident cap of one —
# the tenant set persists, cross-tenant access churns evict/reopen, and
# answers survive the round trips byte-identically.

"$BIN" -addr "$ADDR" -tenants -tenant-dir "$TMP/tenants" -tenant-max-resident 1 \
  -workers 2 -batch 64 &
PID=$!
wait_healthy

list=$(curl -sf "$BASE/t")
grep -q '"name":"limited"' <<<"$list" || fail "tenant set lost on restart: $list"

ans1=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$q_alpha" "$BASE/t/alpha/query")
[[ "$(est "$ans1")" -ge 10 ]] || fail "alpha estimate after restart: $ans1"
# Touching beta under cap 1 evicts alpha to its snapshot.
ans=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$q_beta" "$BASE/t/beta/query")
[[ "$(est "$ans")" -ge 3 ]] || fail "beta estimate after restart: $ans"
[[ -s "$TMP/tenants/alpha/gsketch.snap" ]] || fail "alpha snapshot missing after eviction"
stats=$(curl -sf "$BASE/stats")
grep -Eq '"tenant_evictions":[1-9]' <<<"$stats" || fail "no evictions recorded: $stats"
# First access after eviction transparently reopens with identical answers.
ans2=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$q_alpha" "$BASE/t/alpha/query")
[[ "$ans2" == "$ans1" ]] || fail "alpha answers differ after evict/reopen: $ans1 vs $ans2"
stats=$(curl -sf "$BASE/stats")
grep -Eq '"tenant_reopens":[1-9]' <<<"$stats" || fail "no reopens recorded: $stats"

# Delete drops the tenant and its on-disk state.
curl -sf -X DELETE "$BASE/t/beta" >/dev/null || fail "DELETE /t/beta"
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/t/beta")
[[ "$code" == "404" ]] || fail "GET deleted tenant: $code"
[[ ! -e "$TMP/tenants/beta" ]] || fail "beta directory survived delete"

kill -TERM "$PID"
wait "$PID" || fail "server exited non-zero on SIGTERM"
PID=""

echo "tenant-smoke: OK"
