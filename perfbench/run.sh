#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the checkout root:
#
#   bash perfbench/run.sh --workload beff-sweep --seed 1 --seconds 40 --trace 0
#
# The Go build cache, the binary, scratch caches and traces all live
# under .bench_build/ so nothing outside the checkout is written.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" --root "$root" "$@"
