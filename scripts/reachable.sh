#!/usr/bin/env bash
# Reachability check: every function and method declared in a non-test
# file under internal/ must be linked into one of the module's binaries
# (./cmd/... and ./examples/...), or be named in scripts/reachable.allow
# with the reason it stays. Code that only its own tests call fails.
# Struct fields, consts, vars and types are checked by the root test
# TestEveryDeclarationIsRead, which shares the allowlist and also fails
# on a line that names nothing declared.
#
# The binaries are built with inlining off, so every called function
# keeps its own symbol; `go tool nm` then lists what the linker kept.
#
# Blind spot: once a binary can look methods up by reflection (through
# text/template or encoding/json, say), the linker keeps every exported
# method of each type converted to an interface, called or not. Such a
# method passes here with no call site; `go build -ldflags=-dumpdep`
# shows the edge as `type:*T <UsedInIface> -> T.Method`. An unused
# exported method on such a type is found only by reading its callers.
#
# Usage:
#   scripts/reachable.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/bin"
go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...

# Linked symbols of this module, as package.Func or package.Type.Method:
# type arguments, receiver punctuation and closure suffixes stripped.
for b in "$tmp"/bin/*; do go tool nm "$b"; done | awk '
  $2 != "T" && $2 != "t" { next }
  {
    name = $0
    sub(/^ *[0-9a-f]+ [Tt] /, "", name)
    if (name !~ /^repro\/internal\//) next
    sub(/^repro\/internal\//, "", name)
    out = ""; depth = 0
    for (i = 1; i <= length(name); i++) {
      c = substr(name, i, 1)
      if (c == "[") depth++
      else if (c == "]") depth--
      else if (depth == 0) out = out c
    }
    gsub(/[(*)]/, "", out)
    sub(/-fm$/, "", out)
    while (out ~ /\.(func|gowrap|deferwrap)[0-9]+(\.[0-9]+)*$/ || out ~ /-range[0-9]+$/) {
      sub(/\.(func|gowrap|deferwrap)[0-9]+(\.[0-9]+)*$/, "", out)
      sub(/-range[0-9]+$/, "", out)
    }
    print out
  }' | sort -u > "$tmp/linked"

# Declared functions: package.Func or package.Type.Method, with file:line.
for f in internal/*/*.go; do
  case "$f" in *_test.go) continue ;; esac
  awk -v file="$f" '
    BEGIN { pkg = file; sub(/^internal\//, "", pkg); sub(/\/[^\/]*$/, "", pkg) }
    /^func / {
      line = substr($0, 6); recv = ""
      if (line ~ /^\(/) {
        close_at = index(line, ")")
        recv = substr(line, 2, close_at - 2)
        line = substr(line, close_at + 1)
        sub(/^ +/, "", line)
        sub(/\[.*$/, "", recv)
        n = split(recv, parts, " ")
        recv = parts[n]
        sub(/^\*/, "", recv)
      }
      match(line, /^[A-Za-z_][A-Za-z0-9_]*/)
      fn = substr(line, 1, RLENGTH)
      if (recv == "" && (fn == "init" || fn == "main")) next
      print pkg "." (recv == "" ? "" : recv ".") fn, file ":" FNR
    }' "$f"
done | sort -k1,1 > "$tmp/declared"

# Function lines only: the test checks the other kinds.
awk 'NF && $1 !~ /^#/' scripts/reachable.allow |
  awk 'NR == FNR { declared[$1] = 1; next } $1 in declared' "$tmp/declared" - > "$tmp/allow"
fail=0
if bad=$(awk '$2 != "bench" && $2 != "test"' "$tmp/allow") && [ -n "$bad" ]; then
  echo "function allowlist lines without a reason (bench or test):" >&2
  echo "$bad" >&2
  fail=1
fi
if live=$(awk 'NR == FNR { seen[$1] = 1; next } ($1 in seen) { print $1 }' "$tmp/linked" "$tmp/allow") && [ -n "$live" ]; then
  echo "allowlisted but linked (drop the line):" >&2
  echo "$live" >&2
  fail=1
fi
unlinked=$(awk 'FILENAME == ARGV[1] { linked[$1] = 1; next }
  FILENAME == ARGV[2] { allowed[$1] = 1; next }
  !($1 in linked) && !($1 in allowed) { print $2 ": " $1 }' "$tmp/linked" "$tmp/allow" "$tmp/declared")
if [ -n "$unlinked" ]; then
  echo "declared in internal/ but linked into no binary and not allowlisted:" >&2
  echo "$unlinked" >&2
  echo "$(echo "$unlinked" | wc -l | tr -d ' ') unlinked functions" >&2
  fail=1
fi
if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "reachable ok ($(wc -l < "$tmp/declared" | tr -d ' ') functions, $(wc -l < "$tmp/allow" | tr -d ' ') allowlisted)"
