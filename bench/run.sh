#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json "command"). Builds the
# harness from source and runs it from the root of the checkout;
# arguments go to the harness (see README.md). Everything built lands
# in .bench_build/ inside the checkout, the Go build cache included
# unless GOCACHE is already set, so a run writes nothing outside it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
mkdir -p "$root/.bench_build"
export GOCACHE="${GOCACHE:-$root/.bench_build/gocache}"
export GOTOOLCHAIN=local
go build -C bench -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
