#!/bin/sh
# Tier-1 gate, shell form of `make ci`: formatting, go vet, full build,
# race-detector test suite, and the invariant checker over every bundled
# benchmark. Run from anywhere; exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
out=$(gofmt -l .)
if [ -n "$out" ]; then
	echo "gofmt needed on:"
	echo "$out"
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race (telemetry + solver, concurrency-heavy)"
go test -race -count=2 ./internal/obs/ ./internal/tsp/

echo "== go test -race (engine + balignd + suite, request-serving stack)"
# -timeout 20m: the core suite alone runs ~4.5 minutes per pass under
# the race detector, so two passes brush the 10-minute default.
go test -race -count=2 -timeout 20m ./internal/engine/ ./cmd/balignd/ ./internal/core/

echo "== go test -race GOMAXPROCS=2 (schedule-independence of parallel solves)"
# Determinism must survive real preemption: with two OS threads the race
# detector interleaves the per-run goroutines for real, and the bit-identity
# tests fail loudly if any result depends on scheduling order.
GOMAXPROCS=2 go test -race -count=2 -run 'Parallel|Determin' ./internal/tsp/ ./internal/align/

echo "== go test -race"
go test -race -timeout 20m ./...

echo "== bench-smoke (every benchmark compiles and runs once)"
# -benchtime=1x: not a measurement, a liveness gate. A benchmark that
# panics, hangs, or rots out of the build fails CI here instead of at
# the next snapshot. ./cmd/balignd/ holds the end-to-end request
# benchmark (BenchmarkServeAlign).
go test -run '^$' -bench . -benchtime 1x -timeout 20m . ./cmd/balignd/

echo "== heldkarp-alloc gate (kernel must stay allocation-free per ascent)"
# The pooled 1-tree kernel runs the synth5000 ascent in ~10 allocs/op;
# the boxed-heap implementation it replaced took ~227k. A named pass
# with a hard allocs/op ceiling keeps that from silently regressing —
# the catch-all smoke above would still "pass" a deoptimized kernel.
# largest/sparse is the bundled suite's largest function, the size
# every production bound runs at.
out=$(go test -run '^$' -bench 'BenchmarkHeldKarpBound/(synth5000|largest)/sparse' -benchtime 1x -benchmem -timeout 10m .)
echo "$out"
for row in synth5000/sparse largest/sparse; do
	allocs=$(echo "$out" | awk -v row="BenchmarkHeldKarpBound/$row-" 'index($1, row) == 1 {print $(NF-1)}')
	if [ -z "$allocs" ] || [ "$allocs" -gt 1000 ]; then
		echo "ci: Held-Karp kernel allocation regression on $row (${allocs:-no result} allocs/op, ceiling 1000)"
		exit 1
	fi
done

echo "== metrics-smoke (boot balignd, align once, scrape /metrics)"
# Black-box gate on the metrics plane: the exposition must be
# scrapeable from a real process with the core families present and
# the request counters actually moving. Catches wiring regressions
# (registry not shared, middleware unplugged) that in-process tests
# with injected registries cannot.
scripts/metrics_smoke.sh

echo "== vet-static (balign vet -all + balignlint)"
# Static gates over the repo's own artifacts: the CFG/profile invariant
# checker across every bundled benchmark (now including the staticprof
# lints and a flow check of the estimated profile), then the determinism
# linter over the Go sources themselves.
go run ./cmd/balign vet -all
go run ./cmd/balignlint

echo "== golden-diff (experiment outputs byte-identical to results/)"
# The deterministic experiment tables must reproduce the committed
# goldens exactly. experiments_all.txt is left out: its Table 2 rows are
# wall-clock timings.
for g in static exttsp ext; do
	echo "experiments -$g vs results/experiments_$g.txt"
	go run ./cmd/experiments -$g | cmp - results/experiments_$g.txt
done

echo "ci: all gates green"
