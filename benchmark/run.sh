#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root, for example:
#
#   bash benchmark/run.sh --workload serve-surface --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the traces stay under .bench_build/ in
# the current directory. The build fails, and nothing is run, outside a
# checkout of the repository.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS= GOTOOLCHAIN=local
(cd "$(dirname "$0")" && go build -o "$out/facs-benchmark" .)
exec "$out/facs-benchmark" "$@"
