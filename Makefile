GO ?= go

# BENCHGUARD wraps the bench targets so they fail loudly when the
# benchmark run errors or the pattern matches zero benchmarks (a plain
# `go test -bench X` exits 0 on both).
BENCHGUARD = sh scripts/benchguard.sh

# BENCH_BASELINE is the committed performance-trajectory snapshot
# bench-compare gates against; bench-record overwrites it.
BENCH_BASELINE ?= BENCH_10.json
BENCH_PR ?= 10

.PHONY: build test short race vet fmt fmt-check bench fuzz-seed bench-warm bench-delta bench-patch obs-guard delta-guard alloc-guard cluster-guard batch-guard profile-guard landing-guard bench-record bench-compare check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

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
# (no fuzzing engine — fast and deterministic).
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

# delta-guard asserts — by counters, not timing — that a K-function
# mutation recomputes at most the changed functions plus their
# dependency-index dependents (see TestDeltaRecomputeBound).
delta-guard:
	$(GO) test -run TestDeltaRecomputeBound -v ./internal/core/

# alloc-guard asserts the hot paths stay inside the allocation budgets
# recorded in the committed trajectory snapshot (TestAllocBudget; skips
# itself when no BENCH_*.json exists yet).
alloc-guard:
	$(GO) test -run TestAllocBudget -v .

# cluster-guard spins up the in-process 3-node cluster under -race and
# asserts byte-identical output from every node and the gateway across
# all arches and modes, including with the owning peer killed
# mid-workload, plus the peer warm path and cluster metrics. Wrapped in
# benchguard with GUARD_MATCH so a renamed test cannot silently turn
# this into a no-op.
cluster-guard:
	GUARD_MATCH='^=== RUN' $(BENCHGUARD) $(GO) test -race -run 'TestCluster' -v ./internal/cluster/

# batch-guard runs the fleet-rewriting acceptance tests under -race:
# dedupe (10 items over 3 binaries → exactly 3 analyses), mid-job
# restart resume with byte-identical outputs, the SSE event contract
# (order, replay, client disconnect), the 413 body caps on every door,
# the batch-lane scheduling invariants, and the full
# batch-through-gateway path. Benchguard-wrapped so a renamed test
# cannot silently turn the guard into a no-op.
batch-guard:
	GUARD_MATCH='^=== RUN' $(BENCHGUARD) $(GO) test -race -run 'TestBatch' -v ./internal/service/batch/ ./internal/service/sched/
	GUARD_MATCH='^=== RUN' $(BENCHGUARD) $(GO) test -race -run 'TestClusterBatch' -v ./internal/cluster/

# profile-guard runs the profile-guided rewriting acceptance tests
# under -race: guided output behaves identically to the original with
# exact counter semantics and fewer cycles, corrupt/empty profiles
# degrade to the unguided bytes, and the 3-arch × 3-mode determinism
# sweep pins serial ≡ parallel ≡ repeat ≡ delta for guided plans.
# Benchguard-wrapped so a renamed test cannot silently turn the guard
# into a no-op.
profile-guard:
	GUARD_MATCH='^=== RUN' $(BENCHGUARD) $(GO) test -race -run 'TestProfileGuided' -v ./internal/core/

# landing-guard runs the landing-pad evidence acceptance tests under
# -race: sound func-ptr acceptance on CFI builds across all three ISAs
# (with the rewritten binaries re-run under CET enforcement), the
# degradation contract (marker-less byte-identity, corrupt markers take
# the conservative path), and the wire-level feature-bit contract at
# every cluster door. Benchguard-wrapped so a renamed test cannot
# silently turn the guard into a no-op.
landing-guard:
	GUARD_MATCH='^=== RUN' $(BENCHGUARD) $(GO) test -race -run 'TestSoundFuncPtrWithLandingPads|TestRewrittenCFIBinaryPassesCET|TestMarkerlessByteIdentity|TestCorruptMarkersDegrade' -v .
	GUARD_MATCH='^=== RUN' $(BENCHGUARD) $(GO) test -race -run 'TestUnknownFeatureBitsRejectedAtEveryDoor|TestNoEvidenceFeatureEndToEnd' -v ./internal/cluster/

# bench-record measures the current build's performance trajectory and
# writes the snapshot this PR commits. Run it once per perf-relevant PR
# on an idle machine; `make check` then gates against the result.
bench-record:
	$(GO) run ./cmd/icfg-experiments -bench-record $(BENCH_BASELINE) -bench-pr $(BENCH_PR)

# bench-compare re-measures the current build and gates it against the
# committed snapshot, failing on latency or allocs/op regressions
# beyond the default tolerances.
bench-compare:
	$(GO) run ./cmd/icfg-experiments -bench-compare $(BENCH_BASELINE)

check: fmt-check vet race fuzz-seed bench-warm bench-delta bench-patch obs-guard delta-guard alloc-guard cluster-guard batch-guard profile-guard landing-guard bench-compare
