#!/usr/bin/env bash
# Statement coverage ledger: what tier-1 and the end-to-end scripts run,
# merged into one profile, counted per package.
#
# 1. tier-1 (`go test ./...`) runs with every package of the module
#    instrumented (-coverpkg=./...) and writes its counters with
#    -test.gocoverdir;
# 2. scripts/golden.sh and the four daemon smokes (smoke_service,
#    smoke_fleet, smoke_trace, smoke_durable) run unchanged under
#    GOFLAGS=-cover GOCOVERDIR, so every binary they build writes its
#    counters when it exits (a process killed with SIGKILL writes none);
# 3. `go tool covdata textfmt` merges both sets of counters;
# 4. each package under internal/, cmd/ and pkg/ prints one line,
#    `package unrun total`, in statements. examples/ and bench/ are left
#    out: tier-1 does not run them.
#
# smoke_replay.sh is left out: its one test replays a larger archive
# through code tier-1 already runs. Run with -test.gocoverdir and merged
# in, it ran no statement the other scripts leave unrun.
#
# The script fails when a package has more unrun statements than its
# line in the committed summary, scripts/cover.txt. A package with no
# line there is reported and not judged. To lower a count after adding
# a test or deleting dead code, regenerate the summary:
#
#   scripts/cover.sh > scripts/cover.txt
#
# A few counts move between runs with no code change: daemon statements
# that run or not with timing, and rare branches of testing/quick
# properties, which draw fresh seeds. The summary keeps the highest
# count of a few runs for those packages.
#
# Usage:
#   scripts/cover.sh
set -euo pipefail
cd "$(dirname "$0")/.."

summary=scripts/cover.txt
committed=""
[ -f "$summary" ] && committed="$(cat "$summary")"

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
mkdir -p "$dir/tier1" "$dir/scripts"

echo "cover: tier-1 under -coverpkg=./..." >&2
go test -count=1 -cover -coverpkg=./... ./... -args -test.gocoverdir="$dir/tier1" >"$dir/tier1.log" 2>&1 || {
  grep -v '^ok\|^?' "$dir/tier1.log" >&2 || true
  echo "cover: tier-1 failed" >&2
  exit 1
}
for s in golden smoke_service smoke_fleet smoke_trace smoke_durable; do
  echo "cover: scripts/$s.sh" >&2
  GOFLAGS=-cover GOCOVERDIR="$dir/scripts" "scripts/$s.sh" >"$dir/$s.log" 2>&1 || {
    tail -20 "$dir/$s.log" >&2
    echo "cover: scripts/$s.sh failed" >&2
    exit 1
  }
done

go tool covdata textfmt -i="$dir/tier1,$dir/scripts" -o "$dir/profile.txt"

# A block appears once per binary that links it; it ran if any run ran it.
# Its package is its file's directory, less the module path.
module="$(go list -m)"
ledger="$(awk -v mod="$module/" '
  NR == 1 { next }
  {
    split($1, loc, ":")
    file = loc[1]
    if (index(file, mod) != 1) next
    file = substr(file, length(mod) + 1)
    if (file !~ /^(internal|cmd|pkg)\//) next
    stmts[$1] = $2
    pkg[$1] = file
    sub(/\/[^\/]*$/, "", pkg[$1])
    if ($3 > 0) ran[$1] = 1
  }
  END {
    for (b in stmts) {
      total[pkg[b]] += stmts[b]
      if (!(b in ran)) unrun[pkg[b]] += stmts[b]
    }
    for (p in total) printf "%s %d %d\n", p, unrun[p], total[p]
  }' "$dir/profile.txt" | sort)"

echo "# package unrun total (statements; scripts/cover.sh)"
echo "$ledger"

fail=0
while read -r p unrun total; do
  was="$(awk -v p="$p" '$1 == p { print $2 }' <<<"$committed")"
  if [ -z "$was" ]; then
    echo "cover: $p has no line in $summary ($unrun of $total unrun)" >&2
  elif [ "$unrun" -gt "$was" ]; then
    echo "cover: $p leaves $unrun statements unrun, $summary allows $was" >&2
    fail=1
  fi
done <<<"$ledger"
exit "$fail"
