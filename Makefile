GO ?= go

# BENCHGUARD wraps the bench targets so they fail loudly when the
# benchmark run errors or the pattern matches zero benchmarks (a plain
# `go test -bench X` exits 0 on both).
BENCHGUARD = sh scripts/benchguard.sh

.PHONY: build test short race vet fmt fmt-check bench fuzz-seed bench-warm bench-delta bench-patch obs-guard alloc-guard check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# vet also covers the benchmark harness: icfgbench/ is a nested module,
# so the root `./...` pattern never compiles it.
vet:
	$(GO) vet ./...
	$(GO) -C icfgbench vet ./...

fmt:
	gofmt -w .

fmt-check:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

bench:
	$(GO) test -bench=. -benchmem .

# fuzz-seed replays every fuzz target's seed corpus as regular tests
# (no fuzzing engine — fast and deterministic). Not part of check:
# `go test -race ./...` already replays every seed corpus.
fuzz-seed:
	$(GO) test -run Fuzz ./...

# bench-warm smoke-tests the rewrite-as-a-service warm path: a few
# iterations of warm Patch vs cold Rewrite, asserting byte-identical
# output and reporting the speedup multiplier.
bench-warm:
	$(BENCHGUARD) $(GO) test -run '^$$' -bench BenchmarkRewriteWarmVsCold -benchtime 3x .

# bench-delta smoke-tests the function-granular delta path: v2 mutates
# a few functions, the delta re-analysis reuses the rest, and the output
# is asserted byte-identical to a cold v2 rewrite.
bench-delta:
	$(BENCHGUARD) $(GO) test -run '^$$' -bench BenchmarkDeltaVsCold -benchtime 3x .

# bench-patch smoke-tests the parallel emit pipeline: the same analysis
# patched on a 1-worker vs 4-worker pool, asserting byte-identical output
# and reporting the speedup multiplier (>1x needs more than one CPU).
bench-patch:
	$(BENCHGUARD) $(GO) test -run '^$$' -bench BenchmarkPatchParallel -benchtime 3x .

# obs-guard verifies the tracing instrumentation stays within its 2%
# overhead budget on the warm patch path (see obs_overhead_test.go).
obs-guard:
	$(GO) test -run TestObsOverheadGuard .

# alloc-guard asserts the hot paths stay inside their allocation
# budgets (TestAllocBudget). It runs outside `race` because allocation
# counts are not meaningful under the race detector.
alloc-guard:
	$(GO) test -run TestAllocBudget -v .

# check runs each gate once. The cluster, batch, profile-guided,
# landing-pad and delta acceptance tests run inside `race`;
# TestAcceptanceTestsExist fails if one of them is renamed away.
check: fmt-check vet race bench-warm bench-delta bench-patch obs-guard alloc-guard
