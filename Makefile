# Tier-1 gate for the branchalign repository. `make ci` (or
# `scripts/ci.sh`) is the check every change must keep green:
# formatting, go vet, a full build, and the test suite under the race
# detector.

GO ?= go

.PHONY: ci fmt vet build test race race-obs race-engine vet-benchmarks vet-static golden-diff bench bench-smoke bench-snapshot metrics-smoke trace-demo serve-demo clean

ci: fmt vet build race-obs race-engine race bench-smoke metrics-smoke vet-static golden-diff

# gofmt -l prints offending files; fail if any.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 20m ./...

# Extra passes over the packages with real concurrency: the telemetry
# registry (spans end on multiple goroutines) and the parallel solver.
race-obs:
	$(GO) test -race -count=2 ./internal/obs/ ./internal/tsp/

# The request-serving stack: engine worker pool / cache / single-flight
# and the balignd HTTP handlers, under the race detector. The core suite
# alone runs ~4.5 minutes per race pass, hence the explicit timeout.
race-engine:
	$(GO) test -race -count=2 -timeout 20m ./internal/engine/ ./cmd/balignd/ ./internal/core/

# Run the pipeline-wide invariant checker over every bundled benchmark.
vet-benchmarks:
	$(GO) run ./cmd/balign vet -all

# Static gates: the benchmark invariant checker plus the determinism
# linter over the repo's own Go sources (see cmd/balignlint).
vet-static: vet-benchmarks
	$(GO) run ./cmd/balignlint

# Regenerate the deterministic experiment outputs and require them
# byte-identical to the committed goldens. experiments_all.txt is left
# out: its Table 2 rows are wall-clock timings.
golden-diff:
	@for g in static exttsp ext; do \
		echo "experiments -$$g vs results/experiments_$$g.txt"; \
		$(GO) run ./cmd/experiments -$$g | cmp - results/experiments_$$g.txt || exit 1; \
	done

bench:
	$(GO) test -bench=. -benchmem ./...

# Liveness gate over the top-level benchmark suite and balignd's
# end-to-end request benchmark: run every benchmark exactly once so CI
# catches one that panics, hangs or stops compiling.
# The second pass names the Held-Karp kernel explicitly with -benchmem so
# its allocation profile, at 5000 synthetic blocks and on the bundled
# suite's largest function, shows up in CI logs (scripts/ci.sh
# additionally enforces an allocs/op ceiling on both rows).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -timeout 20m . ./cmd/balignd/
	$(GO) test -run '^$$' -bench 'BenchmarkHeldKarpBound/(synth5000|largest)/sparse' -benchtime 1x -benchmem -timeout 10m .

# Record a benchmark snapshot to results/BENCH_<LABEL>.json; restrict
# with BENCH=<regex>. Examples:
#   make bench-snapshot LABEL=sparse "BENCH=//sparse"
#   make bench-snapshot LABEL=onetree   # Held-Karp bound + bound fan-out
LABEL ?= local
BENCH ?= .
bench-snapshot:
	scripts/bench.sh $(LABEL) '$(BENCH)'

# Boot balignd, serve one align request, and verify /metrics exposes
# live HTTP/engine/pool families (and that readiness flips on drain).
metrics-smoke:
	scripts/metrics_smoke.sh

# Record a full telemetry trace of a benchmark run and render the
# per-function convergence report from it.
TRACE ?= /tmp/balign-trace.ndjson
trace-demo:
	$(GO) run ./cmd/balign -bench compress -sim -bound -trace $(TRACE)
	$(GO) run ./cmd/balign report -in $(TRACE)

# Start balignd, align one bundled benchmark over HTTP, verify the
# response, and drain the server with SIGTERM.
serve-demo:
	scripts/serve_demo.sh

clean:
	$(GO) clean ./...
