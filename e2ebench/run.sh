#!/usr/bin/env bash
# Builds the end-to-end benchmark from the repository's sources and
# runs it with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload link-10k --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ there: the Go build cache, the binary, the
# run's sources, generations and ledger, and traced runs' spans.
set -euo pipefail

build=.bench_build
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$PWD/$build/gocache"
export GOTMPDIR="$PWD/$build/gotmp"
export GOMODCACHE="$PWD/$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/e2ebench" ./e2ebench
exec "$build/e2ebench" "$@"
