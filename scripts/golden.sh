#!/usr/bin/env bash
# Golden-file check for the scenario engine: every built-in scenario is
# run with `gridctl local -quick` at the default seed and diffed
# byte-for-byte against the committed legacy-table output in
# testdata/golden/ — both sequentially and on a 4-worker cell pool.
#
# Usage:
#   scripts/golden.sh            # check (CI mode, non-zero on any diff)
#   scripts/golden.sh generate   # refresh the goldens from the current build
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-check}"
bin="$(mktemp -d)/gridctl"
go build -o "$bin" ./cmd/gridctl

ids=$("$bin" scenarios | awk '{print $1}')
mkdir -p testdata/golden
fail=0
for id in $ids; do
  golden="testdata/golden/$id.txt"
  if [ "$mode" = generate ]; then
    "$bin" local -quick "$id" > "$golden"
    echo "generated $golden"
    continue
  fi
  seq_out=$(mktemp)
  par_out=$(mktemp)
  "$bin" local -quick "$id" > "$seq_out"
  "$bin" local -quick -workers 4 "$id" > "$par_out"
  if ! cmp -s "$golden" "$seq_out"; then
    echo "GOLDEN MISMATCH (sequential): $id" >&2
    diff "$golden" "$seq_out" | head -20 >&2 || true
    fail=1
  fi
  if ! cmp -s "$golden" "$par_out"; then
    echo "GOLDEN MISMATCH (-workers 4): $id" >&2
    diff "$golden" "$par_out" | head -20 >&2 || true
    fail=1
  fi
  rm -f "$seq_out" "$par_out"
done
if [ "$mode" = check ]; then
  if [ "$fail" -ne 0 ]; then
    echo "golden check failed" >&2
    exit 1
  fi
  echo "golden check ok ($(echo "$ids" | wc -w | tr -d ' ') scenarios, sequential + -workers 4)"
fi
