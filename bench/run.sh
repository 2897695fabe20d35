#!/bin/sh
# The command BENCHMARK.json names: builds and runs the harness with
# everything the Go toolchain writes (build cache, temporary binaries)
# kept under .bench_build/ in the checkout, beside what the harness
# itself writes there. Arguments go to the harness unchanged.
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"
mkdir -p "$GOTMPDIR"
exec go run -C "$root/bench" saferatt/bench "$@"
