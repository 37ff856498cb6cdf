#!/usr/bin/env bash
# Smoke-test the durable multi-tenant run store end to end: start gridd
# with -data-dir and a two-tenant -tenants file, complete runs (one
# traced) as tenant alpha, verify per-tenant auth (401/403) and quotas
# (alpha saturated gets 429 + Retry-After while beta still admits),
# kill -9 the daemon while a paper-scale run is mid-flight, restart on
# the same directory, and require (a) finished results and traces are
# byte-identical to the pre-crash responses, (b) the interrupted run
# recovers as failed with a restart reason, and (c) an identical
# resubmission is answered from the memo cache without re-executing.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${PORT:-18154}"
BIN="$(mktemp -d)"
trap 'kill -9 "${GRIDD_PID:-}" 2>/dev/null || true; rm -rf "$BIN"' EXIT

fail() { echo "FAIL: $1" >&2; shift; for f in "$@"; do echo "--- $f" >&2; cat "$f" >&2 || true; done; exit 1; }

wait_http() {
  for _ in $(seq 1 50); do
    if curl -sf "$1" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  curl -sf "$1" >/dev/null
}

go build -o "$BIN/gridd" ./cmd/gridd
go build -o "$BIN/gridctl" ./cmd/gridctl

DATA="$BIN/data"
cat > "$BIN/tenants.json" <<EOF
{"tenants":[
  {"name":"alpha","key":"alpha-key","max_active":1,"submit_rate":50,"burst":100},
  {"name":"beta","key":"beta-key","max_active":2,"submit_rate":50,"burst":100}
]}
EOF

start_gridd() {
  "$BIN/gridd" -addr "127.0.0.1:$PORT" -dilation 0 \
    -data-dir "$DATA" -tenants "$BIN/tenants.json" >"$BIN/gridd.$1.log" 2>&1 &
  GRIDD_PID=$!
  wait_http "http://127.0.0.1:$PORT/v1/version"
}

API="http://127.0.0.1:$PORT"
CTL_ALPHA() { GRIDD_API_KEY=alpha-key "$BIN/gridctl" -addr "$API" "$@"; }
CTL_BETA()  { GRIDD_API_KEY=beta-key  "$BIN/gridctl" -addr "$API" "$@"; }

echo "== boot with empty -data-dir =="
start_gridd boot1

echo "== auth: no key is 401, wrong key is 403 =="
BODY='{"spec":{"id":"auth-probe","kind":"mrt","params":{"ms":[16],"ns":[4000]}}}'
CODE="$(curl -s -o /dev/null -w '%{http_code}' -XPOST -d "$BODY" "$API/v1/runs")"
[ "$CODE" = 401 ] || fail "unauthenticated submit answered $CODE, want 401"
CODE="$(curl -s -o /dev/null -w '%{http_code}' -XPOST -d "$BODY" -H 'Authorization: Bearer nope' "$API/v1/runs")"
[ "$CODE" = 403 ] || fail "unknown-key submit answered $CODE, want 403"

echo "== alpha completes a table run and a traced run =="
cat > "$BIN/table.json" <<EOF
{"id":"smoke-durable","kind":"mrt","params":{"ms":[16,32],"ns":[4000]}}
EOF
TABLE_ID="$(CTL_ALPHA submit -seed 7 "$BIN/table.json")"
for _ in $(seq 1 200); do
  if CTL_ALPHA status -format json "$TABLE_ID" | grep -q '"state": "done"'; then break; fi
  sleep 0.1
done
curl -sf "$API/v1/runs/$TABLE_ID/result?format=text" > "$BIN/table.pre.txt"

cat > "$BIN/traced.json" <<EOF
{"id":"smoke-durable-traced","kind":"online","workload":{"n":60,"m":32,"rigid_fraction":1},
 "policies":["fcfs"],"params":{"rates":[0.3]},"trace":{"events":true}}
EOF
TRACE_ID="$(CTL_ALPHA submit -seed 7 "$BIN/traced.json")"
for _ in $(seq 1 200); do
  if CTL_ALPHA status -format json "$TRACE_ID" | grep -q '"state": "done"'; then break; fi
  sleep 0.1
done
curl -sf "$API/v1/runs/$TRACE_ID/trace" > "$BIN/trace.pre"
curl -sf "$API/v1/runs/$TRACE_ID/result?format=text" > "$BIN/traced.pre.txt"
[ -s "$BIN/trace.pre" ] || fail "traced run produced no trace" "$BIN/gridd.boot1.log"

echo "== quotas: saturated alpha gets 429 + Retry-After while beta admits =="
# A paper-scale sweep: reliably still in flight while we probe quotas
# and then kill the daemon (alpha's max_active is 1, so it pins alpha's
# only slot).
cat > "$BIN/slow.json" <<EOF
{"id":"smoke-durable-slow","kind":"mrt","params":{"ms":[16,32,48,64,80,96,112,128],"ns":[8000,12000]}}
EOF
SLOW_ID="$(CTL_ALPHA submit -seed 7 "$BIN/slow.json")"
HDRS="$(curl -s -D - -o /dev/null -XPOST -d "$BODY" -H 'Authorization: Bearer alpha-key' "$API/v1/runs")"
echo "$HDRS" | head -1 | grep -q 429 || fail "saturated alpha not throttled: $(echo "$HDRS" | head -1)"
echo "$HDRS" | grep -qi '^retry-after:' || fail "429 carries no Retry-After header"
CODE="$(curl -s -o /dev/null -w '%{http_code}' -XPOST -d "$BODY" -H 'Authorization: Bearer beta-key' "$API/v1/runs")"
[ "$CODE" = 202 ] || fail "beta refused ($CODE) while only alpha is saturated"

echo "== kill -9 mid-run, restart on the same -data-dir =="
CTL_ALPHA status -format json "$SLOW_ID" | grep -Eq '"state": "(queued|running)"' \
  || fail "slow run already terminal before the kill" "$BIN/gridd.boot1.log"
kill -9 "$GRIDD_PID"
GRIDD_PID=""
start_gridd boot2
grep -q "recovered" "$BIN/gridd.boot2.log" || fail "restart log mentions no recovery" "$BIN/gridd.boot2.log"

echo "== recovered results and traces are byte-identical =="
curl -sf "$API/v1/runs/$TABLE_ID/result?format=text" > "$BIN/table.post.txt"
cmp "$BIN/table.pre.txt" "$BIN/table.post.txt" || fail "recovered table differs"
curl -sf "$API/v1/runs/$TRACE_ID/result?format=text" > "$BIN/traced.post.txt"
curl -sf "$API/v1/runs/$TRACE_ID/trace" > "$BIN/trace.post"
cmp "$BIN/traced.pre.txt" "$BIN/traced.post.txt" || fail "recovered traced-run table differs"
cmp "$BIN/trace.pre" "$BIN/trace.post" || fail "recovered trace differs"

echo "== the interrupted run recovered as failed with a restart reason =="
SLOW="$(CTL_ALPHA status -format json "$SLOW_ID")"
echo "$SLOW" | grep -q '"state": "failed"' || fail "interrupted run not failed: $SLOW"
echo "$SLOW" | grep -q "interrupted by daemon restart" || fail "interrupted run lacks restart reason: $SLOW"

echo "== identical resubmission is served from the memo cache =="
RESP="$(curl -sf -XPOST -d "{\"spec\":$(cat "$BIN/traced.json"),\"seed\":7}" -H 'Authorization: Bearer alpha-key' "$API/v1/runs")"
echo "$RESP" | grep -q '"cached":true' || fail "resubmission not cached: $RESP"
echo "$RESP" | grep -q '"state":"done"' || fail "cached resubmission not immediately done: $RESP"
HIT_ID="$(echo "$RESP" | grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4)"
curl -sf "$API/v1/runs/$HIT_ID/result?format=text" > "$BIN/traced.hit.txt"
cmp "$BIN/traced.pre.txt" "$BIN/traced.hit.txt" || fail "cached result differs from original"
curl -sf "$API/v1/metrics" | grep -q '^gridd_run_cache_hits_total 1' \
  || fail "cache hit missing from /v1/metrics" <(curl -sf "$API/v1/metrics" | grep gridd_run)

kill -TERM "$GRIDD_PID"
wait "$GRIDD_PID" || true
GRIDD_PID=""
echo "OK: durable store smoke passed"
