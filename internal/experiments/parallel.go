package experiments

import (
	"sync"
	"sync/atomic"
)

// The parallel evaluation pipeline: the paper's Table 3 sweeps 19
// benchmarks × up to 5 approaches × 3 architectures, and every
// (benchmark, approach, arch) cell is independent — the rewriter never
// mutates its input binary and the emulator owns its own memory — so the
// cells run concurrently on a bounded worker pool. Determinism is
// non-negotiable: workers write results into pre-sized index slots
// (never append), so the aggregated tables are byte-identical for every
// worker count, one (the serial run) included.

// runIndexed executes fn(i) for every i in [0, n) on up to jobs
// concurrent workers. jobs <= 1 runs inline — the serial baseline is the
// same code path minus the goroutines. fn must write its result into
// caller-provided indexed storage; runIndexed imposes no result
// ordering of its own.
func runIndexed(n, jobs int, fn func(int)) {
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
