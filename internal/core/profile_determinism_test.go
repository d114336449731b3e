package core_test

import (
	"bytes"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/profile"
	"icfgpatch/internal/workload"
)

func instrBlockCounter() instrument.Request {
	return instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadCounter}
}

// skewedProfile builds a deterministic hot-skewed profile over the
// analysis's functions: every third function is hot, the rest barely
// warm.
func skewedProfile(an *core.Analysis) *profile.Profile {
	heat := make(map[uint64]uint64)
	for i, f := range an.Graph.Funcs {
		if i%3 == 0 {
			heat[f.Entry] = 1000
		} else {
			heat[f.Entry] = 1
		}
	}
	return an.ProfileFromHeat("skew", heat)
}

// TestProfileGuidedDeterminism extends the staged pipeline's
// byte-equivalence contract to guided rewrites: for every arch × mode
// cell, the same binary plus the same profile must produce
// byte-identical output on all four execution paths — cold Rewrite,
// staged patch (Analyze, then Patch), repeat patch of the same
// analysis, and the version-2 delta patch through a warmed unit store.
func TestProfileGuidedDeterminism(t *testing.T) {
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
				probe, err := core.Analyze(v1, core.AnalysisConfig{Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				prof := skewedProfile(probe)
				opts := core.Options{
					Mode:     mode,
					Request:  instrBlockCounter(),
					Verify:   true,
					InstrGap: gap,
					Profile:  prof,
				}
				cold, err := core.Rewrite(v1, opts)
				if err != nil {
					t.Fatal(err)
				}
				if mode == core.ModeJT && cold.Stats.VariantFuncs == 0 {
					t.Fatal("guided rewrite planned no variants — the profile lane is dead")
				}
				want := cold.Binary.Marshal()

				// Guided output must diverge from unguided exactly when the
				// plan says variants exist.
				unguided := opts
				unguided.Profile = nil
				plain, err := core.Rewrite(v1, unguided)
				if err != nil {
					t.Fatal(err)
				}
				if cold.Stats.VariantFuncs > 0 && bytes.Equal(want, plain.Binary.Marshal()) {
					t.Fatal("variants planned but bytes match the unguided rewrite")
				}
				if cold.Stats.VariantFuncs == 0 && !bytes.Equal(want, plain.Binary.Marshal()) {
					t.Fatal("no variants planned but guided bytes diverge from unguided")
				}

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
					t.Fatal("guided staged patch differs from guided cold rewrite")
				}

				repeat, err := an.Patch(opts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, repeat.Binary.Marshal()) {
					t.Fatal("guided repeat patch differs from guided cold rewrite")
				}

				// Delta: v2 through the warmed unit store, same profile
				// (advisory, applies by function name), must equal a cold
				// guided rewrite of v2.
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
					t.Fatal("guided v2 delta patch differs from guided v2 cold rewrite")
				}
			})
		}
	}
}

// TestProfileGuidedAdversarialHeat runs the determinism check under
// adversarial heat shapes — all-hot, all-cold(-but-alive), and
// single-function spikes — on the cold vs staged paths.
func TestProfileGuidedAdversarialHeat(t *testing.T) {
	suite, err := workload.SPECSuiteCached(arch.X64, false)
	if err != nil {
		t.Fatal(err)
	}
	v1 := suite[0].Binary
	probe, err := core.Analyze(v1, core.AnalysisConfig{Mode: core.ModeJT})
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[string]func(i int) uint64{
		"all-hot":  func(int) uint64 { return 7 },
		"all-cold": func(i int) uint64 { return uint64(i % 2) }, // half dead, half at mean
		"spike": func(i int) uint64 {
			if i == 0 {
				return 1 << 40
			}
			return 1
		},
	}
	for name, f := range shapes {
		t.Run(name, func(t *testing.T) {
			heat := make(map[uint64]uint64)
			for i, fn := range probe.Graph.Funcs {
				if h := f(i); h > 0 {
					heat[fn.Entry] = h
				}
			}
			prof := probe.ProfileFromHeat(name, heat)
			opts := core.Options{Mode: core.ModeJT, Request: instrBlockCounter(), Verify: true, Profile: prof}
			cold, err := core.Rewrite(v1, opts)
			if err != nil {
				t.Fatal(err)
			}
			an, err := core.Analyze(v1, core.AnalysisConfig{Mode: core.ModeJT})
			if err != nil {
				t.Fatal(err)
			}
			got, err := an.Patch(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cold.Binary.Marshal(), got.Binary.Marshal()) {
				t.Fatalf("%s: staged guided patch diverged from cold rewrite", name)
			}
		})
	}
}
