#!/usr/bin/env bash
# Smoke-test the observability pipeline end to end: build gridd and
# gridctl, start the daemon with -pprof and -log-requests, run the
# traced example scenario through the /v1 run API, then assert the
# whole chain holds together — the JSONL trace is served and conserves
# jobs (submits == finishes + kills), `gridctl observe` renders it,
# -swf re-exports it as a replayable archive, the pprof index answers
# outside the API body caps, and /v1/metrics carries the trace-derived
# histograms.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${PORT:-18144}"
BIN="$(mktemp -d)"
trap 'kill "${GRIDD_PID:-}" 2>/dev/null || true; rm -rf "$BIN"' EXIT

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

"$BIN/gridd" -addr "127.0.0.1:$PORT" -dilation 0 -pprof -log-requests >"$BIN/gridd.log" 2>&1 &
GRIDD_PID=$!
wait_http "http://127.0.0.1:$PORT/v1/version"

GRIDCTL="$BIN/gridctl -addr http://127.0.0.1:$PORT"

echo "== traced run: submit the example spec, wait for done =="
RUN_ID="$($GRIDCTL submit examples/scenario/traced-run.json)"
DONE=0
for _ in $(seq 1 100); do
  if $GRIDCTL status -format json "$RUN_ID" | grep -q '"state": "done"'; then DONE=1; break; fi
  sleep 0.1
done
[ "$DONE" = 1 ] || { echo "FAIL: run $RUN_ID did not finish" >&2; $GRIDCTL status "$RUN_ID" >&2; exit 1; }

echo "== trace: JSONL served, submits == finishes + kills =="
$GRIDCTL trace "$RUN_ID" > "$BIN/trace.jsonl"
SUBMITS="$(grep -c '"ev":"submit"' "$BIN/trace.jsonl")"
FINISHES="$(grep -c '"ev":"finish"' "$BIN/trace.jsonl" || true)"
KILLS="$(grep -c '"ev":"kill"' "$BIN/trace.jsonl" || true)"
echo "submits=$SUBMITS finishes=$FINISHES kills=$KILLS"
[ "$SUBMITS" -gt 0 ] || { echo "FAIL: trace recorded no submits" >&2; head "$BIN/trace.jsonl" >&2; exit 1; }
[ "$SUBMITS" -eq $((FINISHES + KILLS)) ] \
  || { echo "FAIL: job conservation violated ($SUBMITS != $FINISHES + $KILLS)" >&2; exit 1; }

echo "== observe: timelines render with utilization and queue rows =="
$GRIDCTL observe "$RUN_ID" > "$BIN/observe.txt"
cat "$BIN/observe.txt"
grep -q "mean utilization" "$BIN/observe.txt" || { echo "FAIL: observe missing utilization line" >&2; exit 1; }
grep -q "^util " "$BIN/observe.txt" || { echo "FAIL: observe missing util sparkline" >&2; exit 1; }
grep -q "^queue " "$BIN/observe.txt" || { echo "FAIL: observe missing queue sparkline" >&2; exit 1; }

echo "== observe -diff: a run diffed against itself matches =="
$GRIDCTL observe -diff "$RUN_ID" "$RUN_ID" > "$BIN/diff.txt"
grep -q "mean util" "$BIN/diff.txt" || { echo "FAIL: observe -diff rendered nothing" >&2; exit 1; }

echo "== trace -swf: a single-policy traced run re-exports as a replayable SWF archive =="
# -swf needs exactly one sub-run: the example sweeps two policies, so
# record a dedicated single-policy run for the export.
cat > "$BIN/single.json" <<EOF
{"id":"smoke-swf","kind":"online","workload":{"n":60,"m":32,"rigid_fraction":1},
 "policies":["fcfs"],"params":{"rates":[0.3]},"trace":{"events":true}}
EOF
SWF_ID="$($GRIDCTL submit "$BIN/single.json")"
for _ in $(seq 1 100); do
  if $GRIDCTL status -format json "$SWF_ID" | grep -q '"state": "done"'; then break; fi
  sleep 0.1
done
$GRIDCTL trace -swf -o "$BIN/recorded.swf" "$SWF_ID"
[ -s "$BIN/recorded.swf" ] || { echo "FAIL: SWF export is empty" >&2; exit 1; }

echo "== pprof: index served outside the API body caps =="
curl -sf "http://127.0.0.1:$PORT/debug/pprof/" >/dev/null \
  || { echo "FAIL: /debug/pprof/ not mounted" >&2; exit 1; }

echo "== metrics: trace-derived histograms exported =="
METRICS="$(curl -sf "http://127.0.0.1:$PORT/v1/metrics")"
echo "$METRICS" | grep -q 'gridd_trace_utilization_ratio_bucket' \
  || { echo "FAIL: utilization histogram missing from /v1/metrics" >&2; exit 1; }
echo "$METRICS" | grep -q 'gridd_trace_queue_depth_bucket' \
  || { echo "FAIL: queue-depth histogram missing from /v1/metrics" >&2; exit 1; }

echo "== request log: -log-requests wrote per-request lines =="
kill -TERM "$GRIDD_PID"
wait "$GRIDD_PID" || true
GRIDD_PID=""
grep -Eq "GET /v1/runs/$RUN_ID/trace 200 .* run=$RUN_ID" "$BIN/gridd.log" \
  || { echo "FAIL: no request-log line for the trace fetch" >&2; cat "$BIN/gridd.log" >&2; exit 1; }
echo "OK: trace smoke passed"
