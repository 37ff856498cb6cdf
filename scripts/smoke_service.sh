#!/usr/bin/env bash
# Smoke-test the online scheduler service end to end: build gridd,
# loadgen and gridctl, start a flag-configured daemon (a one-cluster
# fleet), fire a paced batch of jobs and assert every one completes,
# then run a max-rate probe and assert the service sustains at least
# MIN_RPS submissions per second with zero lost jobs, and that its
# /v1/metrics labels the cluster. Exercise the /v1 run-lifecycle API
# through the pkg/client SDK (gridctl): submit a run and stream its
# per-cell events, and cancel a paper-scale run mid-flight. Then repeat
# the load exercise against a 4-cluster -topology fleet: a campaign of
# CAMPAIGN_TASKS best-effort tasks must fan out and complete, and the
# max-rate probe must sustain MIN_RPS through the routing layer too.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${PORT:-18142}"
BROKER_PORT="${BROKER_PORT:-18143}"
MIN_RPS="${MIN_RPS:-5000}"
PROBE_JOBS="${PROBE_JOBS:-20000}"
CAMPAIGN_TASKS="${CAMPAIGN_TASKS:-500}"
BIN="$(mktemp -d)"
trap 'kill "${GRIDD_PID:-}" "${BROKER_PID:-}" 2>/dev/null || true; rm -rf "$BIN"' EXIT

# assert_rps OUTPUT: extract the sustained jobs/s figure and compare.
assert_rps() {
  local out="$1" label="$2"
  local rps
  rps="$(echo "$out" | awk '{for (i = 2; i <= NF; i++) if ($i == "jobs/s") print $(i-1)}' | head -1)"
  if [ -z "$rps" ] || [ "$(printf '%.0f' "$rps")" -lt "$MIN_RPS" ]; then
    echo "FAIL: $label sustained $rps jobs/s < $MIN_RPS" >&2
    exit 1
  fi
  echo "$label sustained $rps jobs/s"
}

# wait_http URL: poll until the endpoint answers.
wait_http() {
  for _ in $(seq 1 50); do
    if curl -sf "$1" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  curl -sf "$1" >/dev/null
}

go build -o "$BIN/gridd" ./cmd/gridd
go build -o "$BIN/loadgen" ./cmd/loadgen
go build -o "$BIN/gridctl" ./cmd/gridctl

"$BIN/gridd" -addr "127.0.0.1:$PORT" -m 128 -policy easy -dilation 0 >"$BIN/gridd.log" 2>&1 &
GRIDD_PID=$!

wait_http "http://127.0.0.1:$PORT/v1/version"

echo "== smoke: 200 paced jobs, all must complete =="
"$BIN/loadgen" -addr "http://127.0.0.1:$PORT" -n 200 -rps 500 -workers 4 -wait -timeout 60s

echo "== probe: $PROBE_JOBS jobs at max rate, >= $MIN_RPS jobs/s =="
OUT="$("$BIN/loadgen" -addr "http://127.0.0.1:$PORT" -n "$PROBE_JOBS" -workers 8 -wait -timeout 120s)"
echo "$OUT"
assert_rps "$OUT" "single-cluster"

# Capture first: grep -q exits on the first match and would SIGPIPE
# curl under pipefail.
METRICS="$(curl -sf "http://127.0.0.1:$PORT/v1/metrics")"
echo "$METRICS" | grep -q 'gridd_cluster_jobs_completed_total{cluster=' \
  || { echo "FAIL: flag-configured daemon's metrics carry no cluster label" >&2; exit 1; }

GRIDCTL="$BIN/gridctl -addr http://127.0.0.1:$PORT"

echo "== run API: submit via pkg/client, stream per-cell events =="
$GRIDCTL run -quick -watch mrt > "$BIN/v1.txt" 2> "$BIN/watch.log"
grep -q "cell" "$BIN/watch.log" || { echo "FAIL: no cell events streamed" >&2; cat "$BIN/watch.log" >&2; exit 1; }
grep -q "state: done" "$BIN/watch.log" || { echo "FAIL: stream missing terminal state" >&2; exit 1; }

echo "== run API: cancel a paper-scale run mid-flight =="
# A 16-cell MRT sweep heavy enough (~seconds) that the immediate
# cancel below always lands mid-run; cancellation then resolves
# within one cell's duration.
cat > "$BIN/slow.json" <<EOF
{"id":"smoke-slow","kind":"mrt","params":{"ms":[16,32,48,64,80,96,112,128],"ns":[8000,12000]}}
EOF
RUN_ID="$($GRIDCTL submit "$BIN/slow.json")"
$GRIDCTL cancel "$RUN_ID" >/dev/null
CANCELLED=0
for _ in $(seq 1 100); do
  if $GRIDCTL status "$RUN_ID" | grep -q '"state": "cancelled"'; then CANCELLED=1; break; fi
  sleep 0.1
done
[ "$CANCELLED" = 1 ] || { echo "FAIL: run $RUN_ID did not cancel" >&2; $GRIDCTL status "$RUN_ID" >&2; exit 1; }
echo "run $RUN_ID cancelled mid-flight"

kill -TERM "$GRIDD_PID"
wait "$GRIDD_PID" || true
GRIDD_PID=""
grep -q "drained" "$BIN/gridd.log" || { echo "FAIL: gridd did not drain gracefully" >&2; cat "$BIN/gridd.log" >&2; exit 1; }

echo "== broker: 4-cluster fleet, campaign + max-rate probe =="
cat > "$BIN/fleet.json" <<EOF
{
  "grid_policy": "centralized",
  "dilation": 0,
  "defaults": {"policy": "easy"},
  "clusters": [
    {"name": "fast", "m": 128, "speed": 2},
    {"name": "a", "m": 64},
    {"name": "b", "m": 64},
    {"name": "small", "m": 32, "speed": 0.5}
  ]
}
EOF
"$BIN/gridd" -addr "127.0.0.1:$BROKER_PORT" -topology "$BIN/fleet.json" >"$BIN/broker.log" 2>&1 &
BROKER_PID=$!
wait_http "http://127.0.0.1:$BROKER_PORT/v1/version"

echo "== broker smoke: paced campaign of $CAMPAIGN_TASKS tasks must complete =="
"$BIN/loadgen" -addr "http://127.0.0.1:$BROKER_PORT" -campaign "$CAMPAIGN_TASKS" -run-time 20 -wait -timeout 60s

echo "== broker probe: $PROBE_JOBS jobs at max rate through the router, >= $MIN_RPS jobs/s =="
OUT="$("$BIN/loadgen" -addr "http://127.0.0.1:$BROKER_PORT" -n "$PROBE_JOBS" -workers 8 -wait -timeout 120s)"
echo "$OUT"
assert_rps "$OUT" "broker"

METRICS="$(curl -sf "http://127.0.0.1:$BROKER_PORT/v1/metrics")"
echo "$METRICS" | grep -q 'gridd_cluster_jobs_completed_total{cluster="fast"}' \
  || { echo "FAIL: per-cluster metrics missing" >&2; exit 1; }

kill -TERM "$BROKER_PID"
wait "$BROKER_PID" || true
BROKER_PID=""
grep -q "drained fleet" "$BIN/broker.log" || { echo "FAIL: broker did not drain gracefully" >&2; cat "$BIN/broker.log" >&2; exit 1; }
echo "OK: service + broker smoke passed"
