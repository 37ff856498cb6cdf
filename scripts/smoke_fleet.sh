#!/usr/bin/env bash
# Smoke-test distributed run execution end to end: build gridd and
# gridctl, render a reference table from a plain single-process daemon,
# then start a fleet coordinator (-fleet) with two worker processes
# (-worker), submit the same scenario through the ordinary run API,
# assert both workers hold leases concurrently, SIGKILL one of them
# mid-run, and require (a) the run still completes — the dead worker's
# cells requeue via lease TTL — and (b) the rendered table is
# byte-identical to the single-process reference.
set -euo pipefail
cd "$(dirname "$0")/.."

LOCAL_PORT="${LOCAL_PORT:-18152}"
COORD_PORT="${COORD_PORT:-18153}"
BIN="$(mktemp -d)"
trap 'kill -9 "${LOCAL_PID:-}" "${COORD_PID:-}" "${W1_PID:-}" "${W2_PID:-}" 2>/dev/null || true; rm -rf "$BIN"' EXIT

fail() { echo "FAIL: $1" >&2; shift; for f in "$@"; do echo "--- $f" >&2; cat "$f" >&2 || true; done; exit 1; }

# wait_http URL: poll until the endpoint answers.
wait_http() {
  for _ in $(seq 1 50); do
    if curl -sf "$1" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  curl -sf "$1" >/dev/null
}

go build -o "$BIN/gridd" ./cmd/gridd
go build -o "$BIN/gridctl" ./cmd/gridctl

echo "== build identity =="
"$BIN/gridd" -version
"$BIN/gridd" -version | grep -q "catalog" || fail "gridd -version missing catalog hash"

# A paper-scale MRT sweep: 16 cells of a few hundred ms each, so the
# run is reliably still in flight when we observe the fleet and kill a
# worker.
cat > "$BIN/spec.json" <<EOF
{"id":"smoke-fleet","kind":"mrt","params":{"ms":[16,32,48,64,80,96,112,128],"ns":[8000,12000]}}
EOF

echo "== reference: single-process run =="
"$BIN/gridd" -addr "127.0.0.1:$LOCAL_PORT" -dilation 0 >"$BIN/local.log" 2>&1 &
LOCAL_PID=$!
wait_http "http://127.0.0.1:$LOCAL_PORT/v1/version"
"$BIN/gridctl" -addr "http://127.0.0.1:$LOCAL_PORT" run -seed 7 "$BIN/spec.json" > "$BIN/local.txt"
kill -TERM "$LOCAL_PID"
wait "$LOCAL_PID" || true
LOCAL_PID=""

echo "== coordinator (-fleet, 2s lease TTL) + 2 worker processes =="
"$BIN/gridd" -addr "127.0.0.1:$COORD_PORT" -dilation 0 -fleet -fleet-ttl 2s >"$BIN/coord.log" 2>&1 &
COORD_PID=$!
wait_http "http://127.0.0.1:$COORD_PORT/v1/version"
"$BIN/gridd" -worker -coordinator "http://127.0.0.1:$COORD_PORT" -worker-id w1 -worker-batch 2 >"$BIN/w1.log" 2>&1 &
W1_PID=$!
"$BIN/gridd" -worker -coordinator "http://127.0.0.1:$COORD_PORT" -worker-id w2 -worker-batch 2 >"$BIN/w2.log" 2>&1 &
W2_PID=$!

GRIDCTL="$BIN/gridctl -addr http://127.0.0.1:$COORD_PORT"
RUN_ID="$($GRIDCTL submit -seed 7 "$BIN/spec.json")"
echo "submitted distributed run $RUN_ID"

echo "== both workers must lease concurrently, then SIGKILL w1 mid-run =="
CONCURRENT=0
for _ in $(seq 1 200); do
  LEASED="$($GRIDCTL workers | awk 'NR > 1 && $4 > 0 {n++} END {print n+0}')"
  if [ "$LEASED" -ge 2 ]; then CONCURRENT=1; break; fi
  sleep 0.05
done
[ "$CONCURRENT" = 1 ] || fail "never observed 2 workers holding leases concurrently" "$BIN/coord.log" "$BIN/w1.log" "$BIN/w2.log"
$GRIDCTL workers
kill -9 "$W1_PID"
W1_PID=""
echo "SIGKILLed worker w1 mid-run"

echo "== run must still complete (dead worker's cells requeue via TTL) =="
DONE=0
for _ in $(seq 1 1200); do
  STATE="$($GRIDCTL status "$RUN_ID")"
  if echo "$STATE" | grep -q '"state": "done"'; then DONE=1; break; fi
  if echo "$STATE" | grep -Eq '"state": "(failed|cancelled)"'; then
    fail "run $RUN_ID terminated abnormally: $STATE" "$BIN/coord.log" "$BIN/w2.log"
  fi
  sleep 0.1
done
[ "$DONE" = 1 ] || fail "run $RUN_ID did not complete after worker death" "$BIN/coord.log" "$BIN/w2.log"

curl -sf "http://127.0.0.1:$COORD_PORT/v1/runs/$RUN_ID/result?format=text" > "$BIN/fleet.txt"
cmp "$BIN/local.txt" "$BIN/fleet.txt" \
  || fail "distributed table differs from single-process reference" <(diff "$BIN/local.txt" "$BIN/fleet.txt" || true)
echo "distributed table is byte-identical to the single-process reference"

$GRIDCTL status "$RUN_ID" | grep -q '"w2"' \
  || fail "surviving worker w2 missing from run status workers field"

echo "== fleet view after the kill =="
$GRIDCTL workers

echo "== graceful worker drain (SIGTERM) =="
kill -TERM "$W2_PID"
wait "$W2_PID" || true
W2_PID=""
grep -q "drained" "$BIN/w2.log" || fail "worker w2 did not drain gracefully" "$BIN/w2.log"

kill -TERM "$COORD_PID"
wait "$COORD_PID" || true
COORD_PID=""
grep -q "drained" "$BIN/coord.log" || fail "coordinator did not drain gracefully" "$BIN/coord.log"
echo "OK: fleet smoke passed"
