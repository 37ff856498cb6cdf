#!/usr/bin/env bash
# Lines of Go in the module, in three counts: product (non-test .go files
# outside bench/ and .bench_build/), test (_test.go files outside those
# two directories) and bench (every .go file under bench/). A count is
# the number of lines of its files put together, blank lines and
# comments included.
#
# Usage:
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  find "$@" -print0 | xargs -0 -r cat | wc -l
}

outside=(-path ./bench -prune -o -path ./.bench_build -prune -o -path ./.git -prune -o)
printf 'product %d\n' "$(count . "${outside[@]}" -name '*.go' ! -name '*_test.go' -type f)"
printf 'test    %d\n' "$(count . "${outside[@]}" -name '*_test.go' -type f)"
printf 'bench   %d\n' "$(count ./bench -name '*.go' -type f)"
