#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload mixed --seed 7 --seconds 44 --trace 0
#
# Run from the root of a checkout. Build outputs, the Go build cache and span
# files all stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" --out-dir "$out" "$@"
