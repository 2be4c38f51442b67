#!/usr/bin/env bash
# ci-smoke-asserts.sh: the serving-smoke assertions CI runs against a live
# facs-server mid-burst, consolidated from inline workflow one-liners so
# they can be reviewed, shellchecked and run locally:
#
#   scripts/ci-smoke-asserts.sh admits /tmp/metrics.txt
#   scripts/ci-smoke-asserts.sh hotcells /tmp/hotcells.json
#
# admits      a /metrics dump must show a non-zero total of per-cell
#             facs_admits_total counters (admissions actually flowed).
# hotcells    a /hotcells JSON dump must rank cells by descending,
#             positive demand rate.
set -euo pipefail

usage() {
	echo "usage: $0 {admits <metrics-file>|hotcells <hotcells-json>}" >&2
	exit 2
}

[ $# -eq 2 ] || usage
cmd=$1
arg=$2

case "$cmd" in
admits)
	awk '$1 ~ /^facs_admits_total{/ { sum += $2 } END { exit !(sum > 0) }' "$arg"
	echo "admit counters ok: non-zero facs_admits_total"
	;;
hotcells)
	python3 - "$arg" <<-'EOF'
		import json, sys
		doc = json.load(open(sys.argv[1]))
		rates = [c['rate'] for c in doc['cells']]
		assert rates, 'empty hotcells ranking'
		assert rates == sorted(rates, reverse=True), f'ranking not descending: {rates}'
		assert rates[0] > 0, f'no demand recorded mid-burst: {rates}'
		print('hotcells ranking ok:', rates)
	EOF
	;;
*)
	usage
	;;
esac
