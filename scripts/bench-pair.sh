#!/usr/bin/env bash
# bench-pair.sh: paired benchmark runs of one workload, a base revision
# against the working tree, with a sign test per end-to-end metric.
#
#   scripts/bench-pair.sh <rev> <workload> [pairs=10]
#   scripts/bench-pair.sh HEAD~1 sim-city 10
#
# <rev> is exported (git archive) into a temporary directory, which is
# removed on exit. Pair i runs
#
#   bash benchmark/run.sh --workload <workload> --seed i --trace 0
#
# once in that copy and once in the working tree, switching which side
# runs first every pair, so drift on the host hits both sides alike. Each
# run's last output line is its JSON report. For every end-to-end metric
# of BENCHMARK.json the script prints both medians, their ratio
# (change/base), how many pairs the change won, and the two-sided
# sign-test p-value over the pairs that were not ties. A win is a lower
# or a higher value, as the metric's "better" field says.
set -euo pipefail

usage() {
	echo "usage: $0 <rev> <workload> [pairs=10]" >&2
	exit 2
}

[ $# -ge 2 ] && [ $# -le 3 ] || usage
rev=$1
workload=$2
pairs=${3:-10}
case "$pairs" in
'' | *[!0-9]*) usage ;;
esac
[ "$pairs" -ge 1 ] || usage

root=$(git rev-parse --show-toplevel)
cd "$root"
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
	echo "$0: unknown revision $rev" >&2
	exit 2
}

tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$rev" | tar -x -C "$tmp/base"

# run <dir> <seed> <out>: one benchmark run; its last line goes to <out>.
run() {
	local log="$3.log"
	if ! (cd "$1" && bash benchmark/run.sh --workload "$workload" --seed "$2" --trace 0) >"$log" 2>&1; then
		echo "run failed in $1 (seed $2); log follows" >&2
		cat "$log" >&2
		exit 1
	fi
	tail -n 1 "$log" >"$3"
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run "$tmp/base" "$i" "$tmp/base.$i"
		run "$root" "$i" "$tmp/change.$i"
	else
		run "$root" "$i" "$tmp/change.$i"
		run "$tmp/base" "$i" "$tmp/base.$i"
	fi
	echo "pair $i/$pairs done" >&2
done

for ((i = 1; i <= pairs; i++)); do
	printf 'base %s\nchange %s\n' "$(cat "$tmp/base.$i")" "$(cat "$tmp/change.$i")"
done >"$tmp/reports"

echo "$workload: base $rev vs working tree, $pairs pairs"
awk -v pairs="$pairs" '
# value extracts metric m from a JSON report line, or "" when absent.
function value(line, m,    s) {
	if (!match(line, "\"" m "\":\\{\"value\":[-0-9.eE+]+")) return ""
	s = substr(line, RSTART, RLENGTH)
	sub(/.*"value":/, "", s)
	return s + 0
}
# median of a[1..n], sorting a in place.
function median(a, n,    i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
	return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
}
# signp is the two-sided sign-test p-value of k wins in n non-tied pairs.
function signp(k, n,    i, c, p, lo) {
	if (n == 0) return 1
	lo = k < n - k ? k : n - k
	c = 1; p = 0
	for (i = 0; i <= lo; i++) {
		p += c
		c = c * (n - i) / (i + 1)
	}
	p = 2 * p / 2 ^ n
	return p > 1 ? 1 : p
}
FNR == 1 { file++ }
# BENCHMARK.json: the end-to-end metrics and their better direction.
file == 1 && /"end_to_end"/ { inE2E = 1; next }
file == 1 && inE2E && /\]/ { inE2E = 0 }
file == 1 && inE2E && /"name"/ {
	name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name)
	dir = $0; sub(/.*"better": *"/, "", dir); sub(/".*/, "", dir)
	names[++nm] = name; better[name] = dir
	next
}
file == 2 && $1 == "base" { b[++nb] = $0 }
file == 2 && $1 == "change" { c[++nc] = $0 }
END {
	printf "%-18s %14s %14s %8s %6s %8s\n", "metric", "base", "change", "ratio", "wins", "p"
	for (k = 1; k <= nm; k++) {
		m = names[k]; n = 0; wins = 0; ties = 0
		for (i = 1; i <= nb; i++) {
			x = value(b[i], m); y = value(c[i], m)
			if (x == "" || y == "") continue
			n++; bv[n] = x; cv[n] = y
			if (x == y) ties++
			else if ((better[m] == "lower") == (y < x)) wins++
		}
		if (n == 0) { printf "%-18s %14s\n", m, "n/a"; continue }
		mb = median(bv, n); mc = median(cv, n)
		ratio = mb == 0 ? "n/a" : sprintf("%.3f", mc / mb)
		printf "%-18s %14.4g %14.4g %8s %3d/%-2d %8.3g\n", m, mb, mc, ratio, wins, n, signp(wins, n - ties)
	}
}' BENCHMARK.json "$tmp/reports"
