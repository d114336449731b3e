#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#   bash icfgbench/run.sh --workload corpus-cold --seed 1 --seconds 15 --trace 0
# Run it from the repository root. The Go build cache, the build's
# temporary files and the binary stay under .bench_build, so nothing is
# written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOENV=off GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go -C "$root/icfgbench" build -o "$out/icfgbench" .
exec "$out/icfgbench" "$@"
