# Development entry points. Everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-race check-docs bench bench-compare bench-full figures table1 sample fuzz fuzz-smoke soak-smoke chaos-smoke grid grid-smoke clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; fi
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./internal/stats/ ./internal/experiments/ ./internal/grid/ ./internal/sim/ ./internal/fault/ ./internal/runtime/ ./cmd/bcastnode/
	$(GO) test -tags simdebug ./internal/sim/
	$(GO) run ./cmd/checkdocs

# Documentation gate: package + exported doc comments, markdown link targets.
check-docs:
	$(GO) run ./cmd/checkdocs

test-race:
	$(GO) test -race ./...

# Headline benchmarks, committed as a machine-readable report. The previous
# report (if any) is embedded under "previous" for before/after comparison.
BENCHES = BenchmarkFigure10Timing|BenchmarkCoverageConditions|BenchmarkReplicationPoint|BenchmarkTopologyBuild|BenchmarkScalePoint|BenchmarkScaleEngine|BenchmarkLoadPoint
bench:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run='^$$' -bench='$(BENCHES)' -benchmem -timeout 30m . \
		| /tmp/benchjson -old BENCH_results.json -out BENCH_results.json

# CI regression gate: re-run the headline timing benchmarks — the paper-sized
# single-broadcast point, the heavy-traffic saturation point, and the generic
# coverage condition the evaluator's speed claims rest on — and fail on a >25%
# ns/op regression against the committed report. The coverage benchmarks run
# in their own invocation because -bench applies a slash-separated pattern to
# every benchmark's sub-benchmark levels.
bench-compare:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	{ $(GO) test -run='^$$' -bench='BenchmarkFigure10Timing|BenchmarkLoadPoint' -benchmem . && \
		$(GO) test -run='^$$' -bench='BenchmarkCoverageConditions/generic' -benchmem . ; } \
		| /tmp/benchjson -compare BENCH_results.json -match 'Figure10Timing|LoadPoint|CoverageConditions/generic'

# Every benchmark in the repository, human-readable.
bench-full:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every committed results_*.txt table from the declarative grid
# (grid.json): cached points in .gridcache are served content-addressed, only
# missing ones compute, so an interrupted run resumes where it died. See
# EXPERIMENTS.md "Running the grid".
grid:
	$(GO) run ./cmd/grid

# Two-run grid smoke over a tiny spec: the cold run computes and caches, the
# warm rerun must be all cache hits (-require-cached proves it) with a
# byte-identical table, and the sealed store must pass -verify.
grid-smoke:
	$(GO) build -o /tmp/gridsmoke-bin ./cmd/grid
	rm -rf /tmp/gridsmoke && mkdir -p /tmp/gridsmoke/out1 /tmp/gridsmoke/out2
	/tmp/gridsmoke-bin -spec cmd/grid/testdata/smoke.json -cache /tmp/gridsmoke/cache -out /tmp/gridsmoke/out1
	/tmp/gridsmoke-bin -spec cmd/grid/testdata/smoke.json -cache /tmp/gridsmoke/cache -out /tmp/gridsmoke/out2 -require-cached
	cmp /tmp/gridsmoke/out1/smoke.txt /tmp/gridsmoke/out2/smoke.txt
	/tmp/gridsmoke-bin -spec cmd/grid/testdata/smoke.json -cache /tmp/gridsmoke/cache -out /tmp/gridsmoke/out2 -verify

# Regenerate every evaluation figure (moderate replication).
figures:
	$(GO) run ./cmd/experiments -all

# Regenerate every figure at the paper's ±1% CI criterion (slow).
figures-paper:
	$(GO) run ./cmd/experiments -all -paper

table1:
	$(GO) run ./cmd/experiments -table1

# Render the Figure 9 sample network.
sample:
	$(GO) run ./cmd/bcastsim -render

# Short fuzzing campaign over the coverage conditions.
fuzz:
	$(GO) test ./internal/core/ -fuzz FuzzCoverageConditions -fuzztime 30s
	$(GO) test ./internal/core/ -fuzz FuzzMaxMinPath -fuzztime 30s
	$(GO) test ./internal/core/ -fuzz FuzzEvaluatorMatchesReference -fuzztime 30s

# CI-sized fuzz smoke under the race detector: a few seconds per target keeps
# the differential oracles (grid placement vs naive, evaluator vs reference)
# exercised on every change without a full campaign.
fuzz-smoke:
	$(GO) test -race ./internal/geo/ -run '^$$' -fuzz FuzzPlaceGridMatchesNaive -fuzztime 5s
	$(GO) test -race ./internal/core/ -run '^$$' -fuzz FuzzEvaluatorMatchesReference -fuzztime 5s

# CI-sized convergence soak under the race detector: live protocol engines on
# real goroutines and timers, partitions and churn injected by the nemesis,
# delivery cross-checked against the simulator. -short trims the broadcast
# count; the full 200-broadcast soak runs without it.
soak-smoke:
	$(GO) test -race -short ./internal/runtime/soak/

# CI-sized process-kill chaos harness under the race detector: real bcastnode
# processes over UDP, SIGKILL/restart on a seed-deterministic schedule,
# journal replay and dynamic-hello rejoin asserted (see docs/recovery.md).
# -short trims the kill and broadcast counts; the full soak (200 broadcasts,
# 30+ kills) runs without it.
chaos-smoke:
	$(GO) test -race -short ./internal/runtime/chaos/

clean:
	$(GO) clean ./...
