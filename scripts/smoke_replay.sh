#!/usr/bin/env bash
# smoke_replay.sh — streaming-replay smoke: generate a ~1M-job SWF
# archive and replay it through the online simulator under a hard Go
# runtime memory limit, asserting the peak-heap bound and an events/s
# floor (TestReplaySmokeMillionJobs in internal/cluster). A materialized
# replay of the same archive needs hundreds of MB; the streamed path must
# fit in a few.
#
# Environment (all optional):
#   REPLAY_JOBS                archive size          (default 1000000)
#   REPLAY_MAX_HEAP_MB         peak-heap bound       (default 32)
#   REPLAY_MIN_EVENTS_PER_SEC  throughput floor      (default 500000)
#   GOMEMLIMIT                 Go soft memory limit  (default 256MiB)
set -euo pipefail
cd "$(dirname "$0")/.."

export REPLAY_SMOKE=1
export REPLAY_JOBS="${REPLAY_JOBS:-1000000}"
export REPLAY_MAX_HEAP_MB="${REPLAY_MAX_HEAP_MB:-32}"
export REPLAY_MIN_EVENTS_PER_SEC="${REPLAY_MIN_EVENTS_PER_SEC:-500000}"
export GOMEMLIMIT="${GOMEMLIMIT:-256MiB}"

echo "replay smoke: ${REPLAY_JOBS} jobs, GOMEMLIMIT=${GOMEMLIMIT}," \
     "peak heap <= ${REPLAY_MAX_HEAP_MB} MiB, >= ${REPLAY_MIN_EVENTS_PER_SEC} events/s"
go test -run '^TestReplaySmokeMillionJobs$' -v -count=1 ./internal/cluster
echo "replay smoke ok"
