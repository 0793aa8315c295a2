#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Run from the repository root: bash bench/run.sh --workload live_http ...
#
# Everything the build writes stays under .bench_build/ in the checkout: the
# Go build cache, the linker's temporary files and the binary. The first run
# in a fresh checkout therefore compiles the standard library too (about a
# minute on two cores); later runs only re-check the cache.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/bench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "bench/run.sh: run from the root of a full checkout (bench/go.mod and go.mod not both found in $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
# No network, no toolchain switching, no workspace: the module graph is the
# repository's own go.mod plus the replace directive in bench/go.mod.
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$out/smibench" .
exec "$out/smibench" "$@"
