#!/usr/bin/env bash
# abpairs.sh — alternating A/B pairs of the standing benchmark.
#
#   scripts/abpairs.sh --workload W [--pairs N] [--seed0 S]
#                      [--trace 0|1] [--base REV] [--claim W/METRIC]
#
# Compares a base commit (--base, default HEAD) with the checkout as it
# is on disk, uncommitted edits included. After committing a change,
# pass --base HEAD~1. Both sides are built once, with benchmark/run.sh's
# environment, from their own source: the base from a `git archive`
# export in a temp dir, which leaves nothing registered in .git. Then N
# pairs run one at a time, seed S+i-1 for pair i, base first in odd
# pairs and change first in even ones, so drift and warm-up fall on both
# sides alike. Every run lasts BENCHMARK.json's run_seconds.
#
# Per metric it prints both medians, change/base, wins/N (pairs the
# change did better, by BENCHMARK.json's direction; "?" where the file
# names none), the base's IQR, and a verdict:
#   worse   an end-to-end metric worse than the base in the median by
#           more than its bound in BENCHMARK.json
#   CLAIM ok / CLAIM not shown
#           for the metric --claim names: the change must win at least
#           nine pairs in ten and move the median by more than the
#           base's IQR, the way a claimed gain is judged
# The failed-operation counts of both sides close the report, flagged
# MORE FAILED when the change fails a larger share.
#
# The temp dir (base export, binaries, per-run work dirs and outputs)
# goes on every exit path, SIGINT included, and a running benchmark is
# stopped first. TMPDIR chooses where it is made.
set -euo pipefail

usage() { sed -n '2,6p' "$0" >&2; exit 2; }

workload="" pairs=10 seed0=1 trace=0 base=HEAD claim=""
while [ $# -gt 0 ]; do
	case $1 in
	--workload) workload=$2; shift 2 ;;
	--pairs) pairs=$2; shift 2 ;;
	--seed0) seed0=$2; shift 2 ;;
	--trace) trace=$2; shift 2 ;;
	--base) base=$2; shift 2 ;;
	--claim) claim=$2; shift 2 ;;
	*) usage ;;
	esac
done
[ -n "$workload" ] || usage
case $claim in "" | "$workload"/*) ;; *) echo "abpairs: --claim $claim names another workload" >&2; exit 2 ;; esac

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
base_rev=$(git -C "$root" rev-parse --short "$base")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/abpairs.XXXXXX")
child=""
cleanup() {
	if [ -n "$child" ]; then
		kill "$child" 2>/dev/null || true
		wait "$child" 2>/dev/null || true
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

# benchmark/run.sh's build environment; the cache is the checkout's own.
cache=$root/.bench_build
export GOCACHE=$cache/gocache GOMODCACHE=$cache/gomodcache GOPATH=$cache/gopath
export XDG_CONFIG_HOME=$cache/config GOTOOLCHAIN=local GOWORK=off

mkdir -p "$tmp/base" "$tmp/out"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
# From BENCHMARK.json, one key per line: the run length, and per metric
# ("name" first within each entry) its direction, whether it is end to
# end, and its bound ("-" where it has none).
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$root/BENCHMARK.json")
[ -n "$seconds" ] || { echo "abpairs: BENCHMARK.json names no run_seconds" >&2; exit 1; }
awk '
	/"end_to_end"/ { e2e = 1 } /"per_layer"/ { e2e = 0 }
	/"name"/ { gsub(/[",]/, "", $2); name = $2 }
	/"better"/ { gsub(/[",]/, "", $2); better[name] = $2; flag[name] = e2e }
	/"bound"/ { gsub(/[",]/, "", $2); bound[name] = $2 }
	END { for (n in better) print n, better[n], flag[n], (n in bound) ? bound[n] : "-" }
' "$root/BENCHMARK.json" >"$tmp/dirs"

echo "abpairs: building base $base_rev and the checkout" >&2
go build -C "$tmp/base/benchmark" -o "$tmp/base.bin" .
go build -C "$root/benchmark" -o "$tmp/change.bin" .

# run SIDE PAIR: one benchmark run, inside its side's tree, in the
# background so a signal reaches the trap at once.
run() {
	local side=$1 i=$2 tree=$root
	[ "$side" = base ] && tree=$tmp/base
	(cd "$tree" && exec "$tmp/$side.bin" --workload "$workload" --seed $((seed0 + i - 1)) \
		--seconds "$seconds" --trace "$trace" --workdir "$tmp/work-$side") >"$tmp/out/$side.$i" &
	child=$!
	if ! wait "$child"; then
		child=""
		echo "abpairs: $side run of pair $i failed:" >&2
		tail -n 5 "$tmp/out/$side.$i" >&2
		exit 1
	fi
	child=""
	rm -rf "$tmp/work-$side"
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then run base "$i"; run change "$i"; else run change "$i"; run base "$i"; fi
	echo "abpairs: pair $i/$pairs done" >&2
done

# One line per value: side pair name value unit, then the failed and
# attempted counts from each run's result line.
for f in "$tmp"/out/*; do
	side=${f##*/}; i=${side#*.}; side=${side%.*}
	awk -v s="$side" -v i="$i" '$1 == "metric" || $1 == "diag" { print s, i, $2, $3, $4 }' "$f"
	tail -n 1 "$f" | sed -n 's/.*"attempted":\([0-9]*\),"failed":\([0-9]*\).*/'"$side $i ops.attempted \1 count\n$side $i ops.failed \2 count"'/p'
done >"$tmp/values"

echo "abpairs: $workload, $pairs pairs, seeds $seed0..$((seed0 + pairs - 1)), ${seconds}s, trace $trace"
echo "abpairs: base $base_rev, change = checkout $(git -C "$root" rev-parse --short HEAD)$(git -C "$root" diff --quiet HEAD -- . 2>/dev/null || echo '+edits')"
awk -v pairs="$pairs" -v claim="${claim#*/}" '
	FNR == NR { better[$1] = $2; e2e[$1] = $3; bound[$1] = $4; next }
	{ v[$1, $3, $2] = $4; unit[$3] = $5; names[$3] = 1; sides[$1] = 1 }
	function sorted(side, name,   k, j, t, n) {
		n = 0
		for (k = 1; k <= pairs; k++) if ((side, name, k) in v) a[++n] = v[side, name, k] + 0
		for (k = 2; k <= n; k++) for (j = k; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		return n
	}
	function q(n, p,   pos, lo) { pos = 1 + (n - 1) * p; lo = int(pos); return lo >= n ? a[n] : a[lo] + (a[lo + 1] - a[lo]) * (pos - lo) }
	END {
		printf "%-46s %14s %14s %7s %6s %12s  %s\n", "metric", "base p50", "change p50", "ratio", "wins", "base IQR", "verdict"
		cnt = 0
		for (n in names) list[++cnt] = n
		for (k = 2; k <= cnt; k++) for (j = k; j > 1 && list[j - 1] > list[j]; j--) { t = list[j]; list[j] = list[j - 1]; list[j - 1] = t }
		for (k = 1; k <= cnt; k++) {
			n = list[k]
			if (n ~ /^ops\./) continue
			nb = sorted("base", n); mb = q(nb, 0.5); iqr = q(nb, 0.75) - q(nb, 0.25)
			nc = sorted("change", n); mc = q(nc, 0.5)
			if (nb == 0 || nc == 0) continue
			wins = 0; dir = better[n]
			for (i = 1; i <= pairs; i++) {
				if (!(("base", n, i) in v) || !(("change", n, i) in v)) continue
				b = v["base", n, i] + 0; c = v["change", n, i] + 0
				if ((dir == "lower" && c < b) || (dir == "higher" && c > b)) wins++
			}
			ratio = mb != 0 ? sprintf("%.3f", mc / mb) : "-"
			w = dir == "" ? "?" : wins "/" pairs
			verdict = ""
			bd = bound[n]
			worse = bd != "-" && ((dir == "lower" && mc > mb * (1 + bd)) || (dir == "higher" && mc < mb * (1 - bd)))
			if (e2e[n] == 1 && worse) verdict = "worse"
			if (n == claim) {
				gain = dir == "lower" ? mb - mc : mc - mb
				verdict = verdict (wins * 10 >= pairs * 9 && gain > iqr ? " CLAIM ok" : " CLAIM not shown")
			}
			printf "%-46s %14.4f %14.4f %7s %6s %12.4f  %s\n", n " (" unit[n] ")", mb, mc, ratio, w, iqr, verdict
		}
		for (i = 1; i <= pairs; i++) for (s in sides) {
			failed[s] += v[s, "ops.failed", i]; attempted[s] += v[s, "ops.attempted", i]
		}
		more = failed["change"] * attempted["base"] > failed["base"] * attempted["change"]
		printf "failed ops: base %d of %d, change %d of %d%s\n", failed["base"], attempted["base"],
			failed["change"], attempted["change"], more ? "  MORE FAILED" : ""
	}
' "$tmp/dirs" "$tmp/values"
