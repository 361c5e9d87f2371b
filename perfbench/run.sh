#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run in and runs
# it with the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload ladder --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the span files of traced runs all
# stay under .bench_build/ in the current directory.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
