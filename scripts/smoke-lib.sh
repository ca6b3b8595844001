# Shared helpers of the smoke scripts. Source it after setting SMOKE (the
# script's name in failure lines), BASE (the server's HTTP root) and TMP
# (a scratch directory the exit trap removes); PID names the running
# server, if any.

PID=""

cleanup() {
  if [[ -n "$PID" ]] && kill -0 "$PID" 2>/dev/null; then
    kill -9 "$PID" 2>/dev/null || true
  fi
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() { echo "$SMOKE: FAIL: $*" >&2; exit 1; }

# wait_healthy polls /healthz for up to ten seconds; the argument names
# the server in failure lines (default "server").
wait_healthy() {
  local what=${1:-server}
  for _ in $(seq 1 100); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    kill -0 "$PID" 2>/dev/null || fail "$what exited during startup"
    sleep 0.1
  done
  fail "$what never became healthy"
}

# agree fetches /stats and /metrics and fails unless each pair of
# arguments, a /stats key and its /metrics family, reads the same value on
# both: every gauge is one row that both endpoints render.
agree() {
  local stats metrics s m
  stats=$(curl -sf "$BASE/stats") || fail "GET /stats"
  metrics=$(curl -sf "$BASE/metrics") || fail "GET /metrics"
  while (($# >= 2)); do
    s=$(grep -o "\"$1\":[^,}]*" <<<"$stats" | cut -d: -f2)
    m=$(grep "^$2 " <<<"$metrics" | cut -d' ' -f2)
    [[ -n "$s" && "$s" == "$m" ]] || fail "/stats $1 = '$s', /metrics $2 = '$m'"
    shift 2
  done
}
