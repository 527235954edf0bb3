#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments, e.g.
#
#   bash vbench/run.sh --workload fib-forwarding --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the binary stay under .bench_build/ in that checkout.
set -euo pipefail
root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config" "$build/bin"
# XDG_CONFIG_HOME keeps the go command's own configuration and telemetry
# files in the checkout too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$src" && go build -o "$build/bin/vbench" .)
exec "$build/bin/vbench" "$@"
