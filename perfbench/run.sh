#!/usr/bin/env bash
# Builds balignd and the benchmark program from this checkout, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload cached-measured --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 1
#
# Everything the build writes (binaries, Go build cache, temporary files)
# stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
go build -o "$out/balignd" ./cmd/balignd
exec "$out/perfbench" -balignd "$out/balignd" -out "$out" "$@"
