#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given arguments,
# e.g. bash perfbench/run.sh --workload sim-repair --seed 1 --seconds 20 --trace 0
# Run it from the checkout root. The binary and Go's build and module
# caches stay under .bench_build in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
