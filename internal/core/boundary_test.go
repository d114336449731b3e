package core

import (
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/workload"
)

// TestBoundaryTableRewriteEquivalence is the end-to-end regression for
// jump-table bound extension: the workload's table has more entries
// than analysis.MaxTableEntries and sits flush against its section end,
// and the driver dispatches through indices above the cap. A rewriter
// that truncates the table leaves those indices jumping into stale
// original code — with Verify on, that is an illegal-instruction crash
// or divergent output, never a silent pass.
func TestBoundaryTableRewriteEquivalence(t *testing.T) {
	for _, a := range arch.All() {
		p, err := workload.BoundaryTable(a)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		want := runOriginal(t, p.Binary, nil)
		got, res := rewriteAndRun(t, p.Binary, Options{
			Mode:    ModeJT,
			Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
			Verify:  true,
		})
		if string(got.Output) != string(want.Output) {
			t.Errorf("%s: output = %q, want %q", a, got.Output, want.Output)
		}
		if res.Stats.Coverage() != 1 {
			t.Errorf("%s: coverage = %v, want 1", a, res.Stats.Coverage())
		}
		if res.Metrics.ClonedTables != 1 {
			t.Errorf("%s: %d tables cloned, want 1", a, res.Metrics.ClonedTables)
		}
	}
}
