package icfgpatch_test

import (
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/obs"
	"icfgpatch/internal/workload"
)

// TestObsOverheadGuard enforces the observability budget: a traced warm
// Patch of the libxul-like workload must cost no more than 2% over the
// untraced run. The traced path is Patch plus rendering the span tree
// from the result's Metrics (one NewTrace, ~10 child spans, seven
// attributes, the text rendering), so a regression here means the
// rendering grew or measurement crept into a hot loop.
//
// Timing comparisons are noisy, so the guard takes the best of several
// rounds: a single round within budget proves the instrumentation
// itself is cheap, while persistent failure across all rounds means a
// real regression.
func TestObsOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing guard skipped under the race detector")
	}
	p, err := workload.LibxulCached(arch.X64)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Mode: core.ModeJT, Request: blockEmpty()}
	an, err := core.Analyze(p.Binary, core.AnalysisConfig{Mode: opts.Mode})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.Patch(opts); err != nil { // prime lazy placements
		t.Fatal(err)
	}

	measure := func(trace bool) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var sp *obs.Span
				if trace {
					sp = obs.NewTrace("rewrite")
				}
				res, err := an.Patch(opts)
				if err != nil {
					b.Fatal(err)
				}
				res.Metrics.AddSpans(sp, false)
				sp.End()
				_ = sp.Render()
			}
		})
		return float64(r.NsPerOp())
	}

	const budget, rounds = 0.02, 5
	worst := 0.0
	for r := 0; r < rounds; r++ {
		base := measure(false)
		traced := measure(true)
		ratio := traced/base - 1
		t.Logf("round %d: untraced %.0fns traced %.0fns overhead %+.2f%%", r, base, traced, 100*ratio)
		if ratio <= budget {
			return
		}
		if ratio > worst {
			worst = ratio
		}
	}
	t.Errorf("tracing overhead exceeded %.0f%% in all %d rounds (worst %+.2f%%)", 100*budget, rounds, 100*worst)
}
