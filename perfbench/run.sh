#!/usr/bin/env bash
# Builds the benchmark and alps-spin from source into .bench_build/ and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload idle-fleet --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# current directory (Go build cache included). Outside a full checkout the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/alps-spin" alps/cmd/alps-spin
) >&2

exec "$out/perfbench" -spin "$out/alps-spin" "$@"
