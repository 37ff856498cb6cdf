#!/usr/bin/env bash
# Paired benchmark ledger. Runs bench/run.sh alternately on a parent (a
# git ref or a directory) and on this checkout's working tree, over
# consecutive seeds, and
# writes the comparison as JSON: every raw run, per-metric medians and
# quartiles, how many pairs the change won, and whether the two sides'
# sim_digest values agree.
#
#   scripts/bench-pair.sh [options] <parent-ref|parent-dir> <workload>[:<pairs>[:<trace>]] ...
#
#   --seed N       first seed (default: drawn from /dev/urandom); every
#                  pair takes the next one, across workloads in the order given
#   --seconds S    run length passed to bench/run.sh (default 15)
#   --out FILE     write the ledger there (default: standard output)
#   --note TEXT    free text stored as the ledger's "note"
#   --claim W:M    judge metric M of workload W (untraced) as a claimed gain
#
# <pairs> defaults to 10 and <trace> (0 or 1) to 0. Pair i runs the
# parent first when i is even. A parent given as a directory (say, a
# `git archive` copy of the parent commit) is used as it is and left in
# place; a parent given as a ref is checked out with `git worktree add`
# under .bench_build/, which is git-ignored, and removed on every exit.
# Each side builds itself through its own bench/run.sh, after one short
# unrecorded warm-up run per workload.
# Progress goes to standard error. The exit status is non-zero when a run
# fails to produce a result, reports "correct": false or a failed
# operation, when the two sides of a pair disagree on sim_digest for a
# stream pass both completed, or when an untraced end-to-end metric
# regresses: its change median is worse than the parent's by more than
# its BENCHMARK.json bound, and the change loses a one-sided sign test
# over the pairs at 5 % (worse in 9 or more of 10 untied pairs). The
# ledger is written either way.
set -euo pipefail

usage() {
	sed -n '9,18p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
	exit "${1:-2}"
}

seed= seconds=15 out= note= claim=
while [ $# -gt 0 ]; do
	case $1 in
	--seed) seed=$2; shift 2 ;;
	--seconds) seconds=$2; shift 2 ;;
	--out) out=$2; shift 2 ;;
	--note) note=$2; shift 2 ;;
	--claim) claim=$2; shift 2 ;;
	-h | --help) usage 0 ;;
	-*) usage ;;
	*) break ;;
	esac
done
[ $# -ge 2 ] || usage
seed_source=given
if [ -z "$seed" ]; then
	seed=$(od -An -N3 -tu4 /dev/urandom | tr -d ' ')
	seed_source=drawn
	echo "bench-pair: drew first seed $seed" >&2
fi
ref=$1
shift
case $out in "" | /*) ;; *) out=$PWD/$out ;; esac
parent_dir=
if [ -d "$ref" ]; then
	parent_dir=$(cd "$ref" && pwd)
fi

cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
if [ -n "$parent_dir" ]; then
	tree=$parent_dir
	parent="directory $tree"
	unpair() { :; }
else
	parent_sha=$(git rev-parse --verify "$ref^{commit}")
	parent="$ref ($parent_sha)"
	tree=$root/.bench_build/pair-parent
	unpair() {
		git -C "$root" worktree remove --force "$tree" >/dev/null 2>&1 || rm -rf "$tree"
		git -C "$root" worktree prune
	}
	unpair # a worktree left by a run that was killed
fi
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pair.XXXXXX")
trap 'unpair; rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
if [ -z "$parent_dir" ]; then
	mkdir -p "$root/.bench_build"
	git worktree add --detach "$tree" "$parent_sha" >/dev/null 2>&1
fi

# run SIDE WORKLOAD SEED TRACE PAIR SECONDS appends one run record to
# runs.jsonl (PAIR -1: a warm-up, not recorded).
run() {
	local side=$1 w=$2 s=$3 tr=$4 pair=$5 secs=$6 dir=$root code=0 t0
	[ "$side" = parent ] && dir=$tree
	local res=$dir/bench/out/result-$w-trace$tr.json
	rm -f "$res"
	t0=$(date +%s%N)
	bash "$dir/bench/run.sh" --workload "$w" --seed "$s" --seconds "$secs" --trace "$tr" \
		>/dev/null 2>"$tmp/stderr" || code=$?
	[ "$pair" -ge 0 ] || return 0
	if [ ! -f "$res" ]; then
		echo "bench-pair: $side $w seed $s exited $code without a result:" >&2
		tail -n 5 "$tmp/stderr" >&2
		jq -nc --arg side "$side" --arg w "$w" --argjson s "$s" --argjson tr "$tr" --argjson pair "$pair" --argjson code "$code" \
			'{tag: "\($w)/\($pair)", side: $side, workload: $w, seed: $s, trace: $tr, pair: $pair,
			  exit: (if $code == 0 then 1 else $code end), correct: false, attempted: 0, failed: 0, metrics: {}, sim_digest: null}' \
			>>"$tmp/runs.jsonl"
		return 0
	fi
	jq -c --arg side "$side" --argjson pair "$pair" --argjson code "$code" \
		--argjson wall "$((($(date +%s%N) - t0) / 10000000))" \
		'{tag: "\(.workload)/\($pair)", side: $side, workload, seed, trace, pair: $pair, exit: $code,
		  wall_s: ($wall / 100), correct: .result.correct, attempted: .result.attempted,
		  failed: .result.failed, metrics: (.result.metrics | map_values(.value)), sim_digest: .info.sim_digest}' \
		"$res" >>"$tmp/runs.jsonl"
	jq -r '"bench-pair: \(.side) \(.tag) seed \(.seed): op_ms_p50 \(.metrics.op_ms_p50 // "-")"' <<<"$(tail -n 1 "$tmp/runs.jsonl")" >&2
}

touch "$tmp/runs.jsonl"
declare -A warm
next=$seed
for spec in "$@"; do
	IFS=: read -r w n tr <<<"$spec"
	n=${n:-10} tr=${tr:-0}
	if [ -z "${warm[$w]:-}" ]; then
		echo "bench-pair: warming up $w" >&2
		run parent "$w" 1 0 -1 2
		run change "$w" 1 0 -1 2
		warm[$w]=1
	fi
	for ((i = 0; i < n; i++)); do
		if ((i % 2 == 0)); then
			run parent "$w" "$next" "$tr" "$i" "$seconds"
			run change "$w" "$next" "$tr" "$i" "$seconds"
		else
			run change "$w" "$next" "$tr" "$i" "$seconds"
			run parent "$w" "$next" "$tr" "$i" "$seconds"
		fi
		next=$((next + 1))
	done
done

# The change side is this checkout's working tree: named by its commit,
# or by its path when it is not a git checkout (say, a `git archive`
# copy), where git would print usage text instead.
if head=$(git rev-parse --verify -q HEAD 2>/dev/null); then
	change="working tree of $head$(git diff --quiet HEAD || echo ', with uncommitted changes')"
else
	change="directory $root"
fi
host=$(jq -n --arg cpu "$(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ //')" \
	--arg kernel "$(uname -r)" --arg go "$(go version | cut -d' ' -f3-)" --argjson nproc "$(nproc)" \
	'{nproc: $nproc, cpu: $cpu, kernel: $kernel, go: $go}')
ledger=$(jq -s \
	--slurpfile bench "$root/BENCHMARK.json" --argjson host "$host" --arg note "$note" --arg claim "$claim" \
	--arg parent "$parent" --arg change "$change" \
	--argjson seconds "$seconds" --argjson seed "$seed" --arg seed_source "$seed_source" \
	-f /dev/stdin "$tmp/runs.jsonl" <<'JQ'
def r4: if type == "number" then . * 10000 | round / 10000 else . end;
# quantile with linear interpolation between order statistics
def quantile($p): sort as $s | ($s | length) as $n
  | if $n == 0 then null
    else (($n - 1) * $p) as $pos | ($pos | floor) as $lo
      | $s[$lo] + ($pos - $lo) * ($s[[$lo + 1, $n - 1] | min] - $s[$lo]) end;
# Two runs agree on sim_digest when both have none, or when they report
# the same digest for every stream pass both completed (a faster side
# may complete more passes in the same time).
def same_digest($a; $b):
  if $a == $b then true
  elif $a == null or $b == null then false
  else [$a | keys[] | select($b[.] != null)] as $k
    | ($k | length) > 0 and ($k | all(. as $x | $a[$x] == $b[$x])) end;
# One-sided sign test: the chance that a fair coin comes up "worse" in
# at least $k of $n pairs.
def sign_p($k; $n):
  def choose($a; $b): reduce range(0; $b) as $i (1; . * ($a - $i) / ($i + 1));
  [range($k; $n + 1) | choose($n; .)] | add // 0 | . / pow(2; $n);
def quartiles: {q1: (quantile(0.25) | r4), median: (quantile(0.5) | r4), q3: (quantile(0.75) | r4)};
($bench[0] | [.end_to_end[], .per_layer[]] | map({key: .name, value: .}) | from_entries) as $decl
| . as $runs
| ($runs | map(select(.pair >= 0))
   | group_by(.workload + (if .trace == 1 then "_traced" else "" end))
   | map((.[0].workload + (if .[0].trace == 1 then "_traced" else "" end)) as $key
     | (group_by(.pair) | map(
         (map(select(.side == "parent"))[0]) as $p | (map(select(.side == "change"))[0]) as $c
         | {pair: $p.pair, seed: $p.seed, ran_first: (if $p.pair % 2 == 0 then "parent" else "change" end),
            correct: {parent: $p.correct, change: $c.correct}, failed: {parent: $p.failed, change: $c.failed},
            attempted: {parent: $p.attempted, change: $c.attempted},
            sim_digest_equal: same_digest($p.sim_digest; $c.sim_digest),
            sim_digest: (if same_digest($p.sim_digest; $c.sim_digest) then $c.sim_digest + $p.sim_digest
                         else {parent: $p.sim_digest, change: $c.sim_digest} end),
            parent: ($p.metrics | map_values(r4)), change: ($c.metrics | map_values(r4))})) as $pairs
     | {key: $key, value: {
         trace: .[0].trace, seeds: ($pairs | map(.seed)), pairs: $pairs,
         all_correct: ($pairs | all(.correct.parent and .correct.change)),
         all_sim_digests_equal: ($pairs | all(.sim_digest_equal)),
         failed_ops: {parent: ($pairs | map(.failed.parent) | add), change: ($pairs | map(.failed.change) | add)},
         summary: ([$pairs[] | .parent, .change | keys[]] | unique | map(. as $m
           | ($decl[$m].better // "lower") as $better
           | [$pairs[] | select((.parent[$m] | type) == "number" and (.change[$m] | type) == "number")] as $ok
           | ($ok | map(.parent[$m])) as $pv | ($ok | map(.change[$m])) as $cv
           | ($pv | quantile(0.5)) as $pm | ($cv | quantile(0.5)) as $cm
           | (if $pm == 0 or $pm == null then null else $cm / $pm end) as $ratio
           | (if $ratio == null then null elif $better == "higher" then 1 - $ratio else $ratio - 1 end) as $worse
           | {key: $m, value: ({
               unit: ($decl[$m].unit // null), better: $better,
               parent: ($pv | quartiles), change: ($cv | quartiles),
               parent_iqr: ((($pv | quantile(0.75)) // 0) - (($pv | quantile(0.25)) // 0) | r4),
               change_wins: ($ok | map(select(if $better == "higher" then .change[$m] > .parent[$m] else .change[$m] < .parent[$m] end)) | length),
               ties: ($ok | map(select(.change[$m] == .parent[$m])) | length),
               pairs: ($ok | length),
               change_worse_in_pairs: ($ok | map(select(if $better == "higher" then .change[$m] < .parent[$m] else .change[$m] > .parent[$m] end)) | length),
               change_over_parent_median: ($ratio | r4),
               worse_than_parent_median_by: ($worse | r4),
               every_change_run_better_than_every_parent_run: (($ok | length) > 0 and
                 (if $better == "higher" then ($cv | min) > ($pv | max) else ($cv | max) < ($pv | min) end))
             } + (if $decl[$m].bound then {bound: $decl[$m].bound, within_bound: ($worse == null or $worse <= $decl[$m].bound)} else {} end))})
           | from_entries
           | map_values(if has("bound") then
               sign_p(.change_worse_in_pairs; .pairs - .ties) as $p
               | . + {sign_test_p: ($p | r4), regressed: (.within_bound == false and $p <= 0.05)}
             else . end))}})
   | from_entries) as $workloads
| {
    note: $note,
    tool: "scripts/bench-pair.sh",
    command: "bash bench/run.sh --workload <name> --seed <seed> --seconds \($seconds) --trace <0|1>",
    parent: $parent, change: $change, host: $host, seconds: $seconds,
    first_seed: $seed, seed_source: $seed_source,
    order: "pairs run workload by workload in the order given; pair i ran the parent first when i is even, the change first when i is odd; one unrecorded 2 s warm-up run per side and workload (seed 1) came first",
    workloads: $workloads,
    limits: {
      every_end_to_end_metric_within_its_bound_on_every_workload:
        ([$workloads[] | select(.trace == 0) | .summary[] | select(has("bound")) | .within_bound] | all),
      no_end_to_end_metric_regressed:
        ([$workloads[] | select(.trace == 0) | .summary[] | select(has("bound")) | .regressed] | any | not),
      failed_ops_do_not_rise: ([$workloads[] | .failed_ops.change <= .failed_ops.parent] | all),
      all_correct: ([$workloads[] | .all_correct] | all),
      all_sim_digests_equal: ([$workloads[] | .all_sim_digests_equal] | all)
    },
    raw_runs: [$runs[] | select(.pair >= 0) | del(.pair)]
  }
| if $claim == "" then . else
    ($claim | split(":")) as [$w, $m]
    | .workloads[$w].summary[$m] as $s
    | .claim = {workload: $w, metric: $m} + if $s == null then {met: false, result: "no such workload or metric"} else {
        parent_median: $s.parent.median, change_median: $s.change.median,
        change_over_parent: $s.change_over_parent_median, change_better_in_pairs: $s.change_wins, pairs: $s.pairs,
        parent_iqr: $s.parent_iqr, median_gap: (($s.change.median - $s.parent.median) | fabs | r4),
        every_change_run_better_than_every_parent_run: $s.every_change_run_better_than_every_parent_run,
        met: ($s.change_wins * 10 >= $s.pairs * 9 and $s.pairs > 0 and $s.worse_than_parent_median_by < 0
              and (($s.change.median - $s.parent.median) | fabs) > $s.parent_iqr)
      } end
  end
JQ
)
if [ -n "$out" ]; then printf '%s\n' "$ledger" >"$out"; else printf '%s\n' "$ledger"; fi

jq -e '[.raw_runs[] | .exit == 0 and .correct == true and .failed == 0] | all' <<<"$ledger" >/dev/null ||
	{ echo "bench-pair: a run failed, was not correct or had failed operations" >&2; exit 1; }
jq -e '.limits.all_sim_digests_equal' <<<"$ledger" >/dev/null ||
	{ echo "bench-pair: the two sides of a pair disagree on sim_digest" >&2; exit 1; }
jq -e '.limits.no_end_to_end_metric_regressed' <<<"$ledger" >/dev/null || {
	echo "bench-pair: an end-to-end metric is worse than its bound and loses the sign test:" >&2
	jq -r '.workloads | to_entries[] | select(.value.trace == 0) | .key as $w | .value.summary | to_entries[]
		| select(.value.regressed) | "  \($w) \(.key): \(.value.worse_than_parent_median_by) worse, worse in \(.value.change_worse_in_pairs) of \(.value.pairs) pairs"' <<<"$ledger" >&2
	exit 1
}
