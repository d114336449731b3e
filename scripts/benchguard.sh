#!/bin/sh
# benchguard runs a `go test -bench` command and fails loudly when the
# benchmark run errors OR matches zero benchmarks. `go test -bench X`
# exits 0 when X matches nothing, so a renamed benchmark silently turns
# a Makefile bench target into a no-op; this wrapper closes that hole.
#
# Usage: scripts/benchguard.sh go test -run '^$' -bench Foo ...
set -u

out=$("$@" 2>&1)
status=$?
printf '%s\n' "$out"
if [ $status -ne 0 ]; then
    echo "benchguard: command failed with status $status" >&2
    exit $status
fi
if ! printf '%s\n' "$out" | grep -q '^Benchmark'; then
    echo "benchguard: no benchmark ran (pattern matched nothing?)" >&2
    exit 1
fi
