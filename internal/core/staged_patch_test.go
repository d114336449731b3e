package core_test

import (
	"bytes"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/workload"
)

// TestStagedPatchGolden is the staged pipeline's byte-equivalence
// contract, checked across every arch × mode cell: a staged patch
// (Analyze, then Patch), a repeat patch against the same analysis, and
// a version-2 delta patch through the warmed unit store must all be
// byte-identical to the cold Rewrite of the same binary.
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
				cold, err := core.Rewrite(v1, opts)
				if err != nil {
					t.Fatal(err)
				}
				want := cold.Binary.Marshal()

				units := core.NewUnitStore(0)
				an, err := core.Analyze(v1, core.AnalysisConfig{Mode: mode, Units: units})
				if err != nil {
					t.Fatal(err)
				}
				first, err := an.Patch(opts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, first.Binary.Marshal()) {
					t.Fatal("staged patch differs from cold rewrite")
				}
				if first.Metrics.PatchFuncsReused != 0 || first.Metrics.PatchFuncsReencoded == 0 {
					t.Fatalf("first patch reused=%d reencoded=%d, want cold encode of everything",
						first.Metrics.PatchFuncsReused, first.Metrics.PatchFuncsReencoded)
				}

				// Same analysis, second patch.
				repeat, err := an.Patch(opts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, repeat.Binary.Marshal()) {
					t.Fatal("repeat patch differs from cold rewrite")
				}

				// Version 2 through the warmed unit store: unchanged functions
				// arrive as reused analysis units, the mutated ones are
				// recomputed. The output must still match a cold rewrite of
				// version 2.
				cold2, err := core.Rewrite(v2, opts)
				if err != nil {
					t.Fatal(err)
				}
				an2, err := core.Analyze(v2, core.AnalysisConfig{Mode: mode, Units: units})
				if err != nil {
					t.Fatal(err)
				}
				delta, err := an2.Patch(opts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(cold2.Binary.Marshal(), delta.Binary.Marshal()) {
					t.Fatal("v2 delta patch differs from v2 cold rewrite")
				}
				if delta.Metrics.PatchFuncsReencoded == 0 {
					t.Fatal("v2 delta patch re-encoded nothing: the mutation was invisible to the emit stage")
				}
			})
		}
	}
}
