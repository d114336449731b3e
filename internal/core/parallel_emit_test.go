package core_test

import (
	"bytes"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/workload"
)

// TestStagedPatchGolden is the staged pipeline's byte-equivalence
// contract, checked across every arch × mode cell: a parallel emit
// (PatchJobs=8), a serial repeat emit against the same analysis
// (PatchJobs=1), and a version-2 delta patch through the warmed unit
// store must all be byte-identical to the serial cold Rewrite of the
// same binary.
func TestStagedPatchGolden(t *testing.T) {
	for _, a := range []arch.Arch{arch.X64, arch.PPC, arch.A64} {
		suite, err := workload.SPECSuiteCached(a, false)
		if err != nil {
			t.Fatalf("%v suite: %v", a, err)
		}
		v1 := suite[0].Binary
		v2, _, err := workload.MutateVersion(v1, mutateK, 29)
		if err != nil {
			t.Fatalf("%v mutate: %v", a, err)
		}
		var gap uint64
		if a == arch.PPC {
			gap = ppcInstrGap
		}
		for _, mode := range []core.Mode{core.ModeDir, core.ModeJT, core.ModeFuncPtr} {
			t.Run(a.String()+"/"+mode.String(), func(t *testing.T) {
				opts := core.Options{
					Mode:     mode,
					Request:  instrBlockEmpty(),
					Verify:   true,
					InstrGap: gap,
				}
				serial, err := core.Rewrite(v1, opts) // PatchJobs 0: the serial seed
				if err != nil {
					t.Fatal(err)
				}
				want := serial.Binary.Marshal()

				units := core.NewUnitStore(0)
				an, err := core.Analyze(v1, core.AnalysisConfig{Mode: mode, Units: units})
				if err != nil {
					t.Fatal(err)
				}
				par := opts
				par.PatchJobs = 8
				first, err := an.Patch(par)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, first.Binary.Marshal()) {
					t.Fatal("parallel patch (jobs=8) differs from serial rewrite")
				}
				if first.Metrics.PatchFuncsReused != 0 || first.Metrics.PatchFuncsReencoded == 0 {
					t.Fatalf("first patch reused=%d reencoded=%d, want cold encode of everything",
						first.Metrics.PatchFuncsReused, first.Metrics.PatchFuncsReencoded)
				}

				// Same analysis, serial pool.
				one := opts
				one.PatchJobs = 1
				repeat, err := an.Patch(one)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, repeat.Binary.Marshal()) {
					t.Fatal("repeat patch (jobs=1) differs from serial rewrite")
				}

				// Version 2 through the warmed unit store: unchanged functions
				// arrive as reused analysis units, the mutated ones are
				// recomputed. The output must still match a cold serial
				// rewrite of version 2.
				cold2, err := core.Rewrite(v2, opts)
				if err != nil {
					t.Fatal(err)
				}
				an2, err := core.Analyze(v2, core.AnalysisConfig{Mode: mode, Units: units})
				if err != nil {
					t.Fatal(err)
				}
				delta, err := an2.Patch(par)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(cold2.Binary.Marshal(), delta.Binary.Marshal()) {
					t.Fatal("v2 delta patch differs from v2 serial rewrite")
				}
				if delta.Metrics.PatchFuncsReencoded == 0 {
					t.Fatal("v2 delta patch re-encoded nothing: the mutation was invisible to the emit stage")
				}
			})
		}
	}
}
