#!/usr/bin/env bash
# ci-smoke-asserts.sh: the serving-smoke assertions CI runs against a live
# facs-server mid-burst, consolidated from inline workflow one-liners so
# they can be reviewed, shellchecked and run locally:
#
#   scripts/ci-smoke-asserts.sh admits /tmp/metrics.txt
#
# admits      a /metrics dump must show a non-zero sum of facs_admits_total
#             on every cell the daemon serves (the cells that export a
#             facs_capacity_bu gauge), so admissions flowed to each cell,
#             not only to some.
set -euo pipefail

usage() {
	echo "usage: $0 admits <metrics-file>" >&2
	exit 2
}

[ $# -eq 2 ] || usage
cmd=$1
arg=$2

case "$cmd" in
admits)
	awk '
		function cell(series) {
			match(series, /cell="[0-9]+"/)
			return substr(series, RSTART + 6, RLENGTH - 7)
		}
		$1 ~ /^facs_capacity_bu\{/ { cells[cell($1)] = 1 }
		$1 ~ /^facs_admits_total\{/ { admits[cell($1)] += $2 }
		END {
			n = 0
			for (c in cells) {
				n++
				if (!(admits[c] > 0)) missing = missing " " c
			}
			if (n == 0) { print "no cells in the metrics dump" > "/dev/stderr"; exit 1 }
			if (missing != "") { print "no admits on cell(s):" missing > "/dev/stderr"; exit 1 }
			print "admit counters ok: non-zero facs_admits_total on all " n " cells"
		}
	' "$arg"
	;;
*)
	usage
	;;
esac
