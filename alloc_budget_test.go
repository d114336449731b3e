package icfgpatch_test

import (
	"runtime"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/workload"
)

// Allocation budgets, in allocs/op, for the steady-state paths on the
// libxul-x64 workload (jt, empty payload at block entries). Each is
// 1.2× the count measured when the budget was set (3885, 46700.8 and
// 8410), so a failure means a real regression in allocation
// discipline: re-examine the change, or lower the budget when an
// optimisation makes room.
const (
	warmPatchAllocBudget    = 4662
	warmAnalyzeAllocBudget  = 56040
	deltaAnalyzeAllocBudget = 10092
)

// TestAllocBudget asserts the hot paths stay inside their allocation
// budgets: a warm Patch of a cached analysis, a warm whole-binary
// Analyze, and a delta Analyze of a three-function mutation against a
// unit store seeded with the previous version. Counts are taken on the
// serial patch path with the world pinned to one proc, where they are
// deterministic.
func TestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if testing.Short() {
		t.Skip("skipping allocation measurement in short mode")
	}
	const runs = 3
	prog, err := workload.LibxulCached(arch.X64)
	if err != nil {
		t.Fatal(err)
	}
	v1 := prog.Binary
	v2, _, err := workload.MutateVersion(v1, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.Analyze(v1, core.AnalysisConfig{Mode: core.ModeJT})
	if err != nil {
		t.Fatal(err)
	}
	patchOpts := core.Options{Mode: core.ModeJT,
		Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty}}

	check := func(name string, got, budget float64) {
		if got > budget {
			t.Errorf("%s: %.0f allocs/op exceeds budget %.0f", name, got, budget)
		} else {
			t.Logf("%s: %.0f allocs/op within budget %.0f", name, got, budget)
		}
	}
	check("warm_patch", testing.AllocsPerRun(runs, func() {
		res, err := an.Patch(patchOpts)
		if err != nil {
			t.Fatal(err)
		}
		res.Recycle()
	}), warmPatchAllocBudget)
	check("warm_analyze", testing.AllocsPerRun(runs, func() {
		if _, err := core.Analyze(v1, core.AnalysisConfig{Mode: core.ModeJT}); err != nil {
			t.Fatal(err)
		}
	}), warmAnalyzeAllocBudget)

	// The first delta against a store IS the measurement, so there is no
	// warm-up run: each run seeds a fresh store with v1 outside the
	// measured window, then counts the v2 analysis alone.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var mallocs uint64
	for i := 0; i < runs; i++ {
		units := core.NewUnitStore(0)
		if _, err := core.Analyze(v1, core.AnalysisConfig{Mode: core.ModeJT, Units: units}); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := core.Analyze(v2, core.AnalysisConfig{Mode: core.ModeJT, Units: units}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	check("delta_analyze", float64(mallocs)/runs, deltaAnalyzeAllocBudget)
}
