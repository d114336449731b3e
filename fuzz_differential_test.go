package icfgpatch_test

// The differential byte-equivalence fuzzer: the repo's central
// correctness claim is that every fast path — staged Analyze+Patch,
// repeat patches of one analysis, and delta re-analysis via the unit
// store — produces output byte-identical to a cold Rewrite. The golden tests pin that claim on a handful of fixed
// workloads; the fuzzer searches for counterexamples by generating
// workload programs from fuzzed profile parameters and comparing the
// marshalled images across 3 arches × 3 modes.
//
// Seed corpus regressions live in testdata/fuzz/FuzzDifferentialRewrite;
// every `go test` run replays them. To hunt for new
// divergences: go test -fuzz FuzzDifferentialRewrite -fuzztime 60s .

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/profile"
	"icfgpatch/internal/workload"
)

// fuzzProfile maps the fuzzer's raw int64s onto a valid workload
// profile. Every input must map to SOME profile (clamping, not
// rejection), or the fuzzer wastes its budget on discarded inputs.
func fuzzProfile(seed, nfuncs, flags, pct int64) workload.Profile {
	clamp := func(v, lo, hi int64) int {
		if v < lo {
			v = lo + (lo-v)%(hi-lo+1)
		}
		if v > hi {
			v = lo + (v-lo)%(hi-lo+1)
		}
		return int(v)
	}
	frac := func(shift uint) float64 {
		// Four independent 0..15 nibbles of pct become 0..0.75 fractions.
		return float64((pct>>shift)&0xf) / 20.0
	}
	p := workload.Profile{
		Name:           fmt.Sprintf("fuzz-%d", seed),
		Seed:           seed,
		Lang:           "c++",
		Funcs:          clamp(nfuncs, 4, 96),
		SwitchFrac:     frac(0),
		SpillFrac:      frac(4),
		OpaqueFrac:     frac(8),
		TinyFrac:       frac(12),
		TailCallFrac:   frac(16),
		DispatcherFrac: frac(20),
		Exceptions:     flags&1 != 0,
		StackCalls:     flags&2 != 0,
		Iters:          3,
	}
	if flags&4 != 0 {
		p.DtorFuncs = clamp(flags>>8, 1, 8)
	}
	if flags&8 != 0 {
		p.Lang = "go"
		p.GoRuntime = true
		p.SwitchFrac, p.SpillFrac, p.OpaqueFrac = 0, 0, 0
	}
	if flags&32 != 0 {
		// The marker lane: a CFI build must hold the same four-path
		// byte-equivalence, and every rewritten output must run clean
		// under CET enforcement.
		p.CFI = true
	}
	return p
}

// fuzzHeatProfile derives an adversarial heat shape from the fuzz
// input: all-hot (every function equal), all-cold (half dead, half at
// the mean), or spike-skewed (one function dominates). The profile is
// built over the analysis's own CFG, so it names real functions.
func fuzzHeatProfile(an *core.Analysis, shape, seed int64) *profile.Profile {
	heat := make(map[uint64]uint64)
	for i, fn := range an.Graph.Funcs {
		switch shape % 3 {
		case 0: // all-hot
			heat[fn.Entry] = 9
		case 1: // all-cold: alternating dead and at-mean
			heat[fn.Entry] = uint64(i % 2)
		default: // spike: one dominant function, chosen by the seed
			if int64(i) == seed%int64(len(an.Graph.Funcs)) {
				heat[fn.Entry] = 1 << 30
			} else {
				heat[fn.Entry] = 1
			}
		}
	}
	return an.ProfileFromHeat("fuzz", heat)
}

// marshalAndRecycle snapshots a result's image, then recycles its
// pooled buffers — deliberately, so the fuzzer also stresses the emit
// pool's reuse discipline: a buffer returned too early or reused
// without a full overwrite shows up as a byte diff on a later run.
func marshalAndRecycle(res *core.Result) []byte {
	img := res.Binary.Marshal()
	res.Recycle()
	return img
}

func diffImages(t *testing.T, label string, want, got []byte) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	off := -1
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			off = i
			break
		}
	}
	t.Fatalf("%s: image diverges from cold rewrite (len %d vs %d, first diff at byte %d)",
		label, len(want), len(got), off)
}

func FuzzDifferentialRewrite(f *testing.F) {
	// Hand-picked seeds covering the generator's feature axes: plain,
	// switch-heavy, exceptions+stack calls, tiny/dispatcher-heavy,
	// Go-runtime, and destructor-laden profiles.
	f.Add(int64(1), int64(24), int64(0), int64(0x000000), int64(2))
	f.Add(int64(7), int64(40), int64(0), int64(0x00ffff), int64(3))
	f.Add(int64(42), int64(32), int64(3), int64(0x0f0f0f), int64(1))
	f.Add(int64(99), int64(16), int64(0), int64(0xff00ff), int64(4))
	f.Add(int64(1234), int64(20), int64(8), int64(0), int64(2))
	f.Add(int64(555), int64(28), int64(0x0304), int64(0x00f000), int64(5))
	// CFI (landing-pad) builds: switch-heavy and Go-runtime profiles.
	f.Add(int64(77), int64(36), int64(32|2), int64(0x0f00ff), int64(3))
	f.Add(int64(2048), int64(24), int64(32|8), int64(0), int64(1))

	f.Fuzz(func(t *testing.T, seed, nfuncs, flags, pct, k int64) {
		prof := fuzzProfile(seed, nfuncs, flags, pct)
		mutK := int(k%7) + 1
		for _, a := range []arch.Arch{arch.X64, arch.PPC, arch.A64} {
			prog, err := workload.Generate(a, flags&16 != 0, prof)
			if err != nil {
				// Not every fuzzed profile assembles on every arch; that is
				// the generator's contract to report, not a rewrite bug.
				continue
			}
			v2, _, err := workload.MutateVersion(prog.Binary, mutK, seed^0x5eed)
			if err != nil {
				continue
			}
			// Marker lane: pin the original builds' CET-enforced outputs;
			// every rewritten output below must reproduce them while
			// keeping every indirect transfer on a landing pad.
			var origCET, v2CET []byte
			if prof.CFI {
				origCET = runCET(t, a.String()+"/original", prog.Binary, 1)
				v2CET = runCET(t, a.String()+"/v2-original", v2, 1)
			}
			assertCET := func(label string, want []byte, res *core.Result) {
				if !prof.CFI {
					return
				}
				if got := runCET(t, label, res.Binary, 1); !bytes.Equal(want, got) {
					t.Fatalf("%s: output diverges under CET enforcement", label)
				}
			}
			for _, mode := range []core.Mode{core.ModeDir, core.ModeJT, core.ModeFuncPtr} {
				label := fmt.Sprintf("%s/%s", a, mode)
				opts := core.Options{Mode: mode, Request: blockEmpty()}

				// Baseline: cold rewrite.
				coldRes, err := core.Rewrite(prog.Binary, opts)
				if err != nil {
					if errors.Is(err, core.ErrImpreciseFuncPtrs) {
						continue // mode refuses the binary; nothing to compare
					}
					t.Fatalf("%s: cold rewrite: %v", label, err)
				}
				assertCET(label+"/cold-cet", origCET, coldRes)
				cold := marshalAndRecycle(coldRes)

				// Staged path: Analyze, then Patch.
				an, err := core.Analyze(prog.Binary, core.AnalysisConfig{Mode: mode})
				if err != nil {
					t.Fatalf("%s: analyze: %v", label, err)
				}
				res, err := an.Patch(opts)
				if err != nil {
					t.Fatalf("%s: staged patch: %v", label, err)
				}
				diffImages(t, label+"/staged", cold, marshalAndRecycle(res))

				// Repeat patch against the same analysis.
				res, err = an.Patch(opts)
				if err != nil {
					t.Fatalf("%s: repeat patch: %v", label, err)
				}
				diffImages(t, label+"/repeat", cold, marshalAndRecycle(res))

				// Delta path on the mutated version vs its own cold rewrite.
				coldV2Res, err := core.Rewrite(v2, opts)
				if err != nil {
					if errors.Is(err, core.ErrImpreciseFuncPtrs) {
						continue
					}
					t.Fatalf("%s: cold v2 rewrite: %v", label, err)
				}
				assertCET(label+"/cold-v2-cet", v2CET, coldV2Res)
				coldV2 := marshalAndRecycle(coldV2Res)
				units := core.NewUnitStore(0)
				if _, err := core.Analyze(prog.Binary, core.AnalysisConfig{Mode: mode, Units: units}); err != nil {
					t.Fatalf("%s: seeding unit store: %v", label, err)
				}
				anV2, err := core.Analyze(v2, core.AnalysisConfig{Mode: mode, Units: units})
				if err != nil {
					t.Fatalf("%s: delta analyze: %v", label, err)
				}
				res, err = anV2.Patch(opts)
				if err != nil {
					t.Fatalf("%s: delta patch: %v", label, err)
				}
				diffImages(t, label+"/delta", coldV2, marshalAndRecycle(res))

				// Profile-guided lane: an adversarial heat shape derived
				// from the fuzz input must hold the same four-path
				// byte-equivalence — cold ≡ staged ≡ repeat ≡ delta —
				// and diverge from the unguided output only when the plan
				// actually assigned variants.
				gopts := opts
				gopts.Request = blockCounter()
				gopts.Profile = fuzzHeatProfile(an, k, seed)
				gcoldRes, err := core.Rewrite(prog.Binary, gopts)
				if err != nil {
					t.Fatalf("%s: guided cold rewrite: %v", label, err)
				}
				variants := gcoldRes.Stats.VariantFuncs
				assertCET(label+"/guided-cold-cet", origCET, gcoldRes)
				gcold := marshalAndRecycle(gcoldRes)
				res, err = an.Patch(gopts)
				if err != nil {
					t.Fatalf("%s: guided staged patch: %v", label, err)
				}
				diffImages(t, label+"/guided-staged", gcold, marshalAndRecycle(res))
				res, err = an.Patch(gopts)
				if err != nil {
					t.Fatalf("%s: guided repeat patch: %v", label, err)
				}
				diffImages(t, label+"/guided-repeat", gcold, marshalAndRecycle(res))
				gv2Res, err := core.Rewrite(v2, gopts)
				if err != nil {
					t.Fatalf("%s: guided cold v2 rewrite: %v", label, err)
				}
				gv2 := marshalAndRecycle(gv2Res)
				res, err = anV2.Patch(gopts)
				if err != nil {
					t.Fatalf("%s: guided delta patch: %v", label, err)
				}
				diffImages(t, label+"/guided-delta", gv2, marshalAndRecycle(res))

				// Guided-vs-unguided divergence tracks the plan exactly:
				// bytes differ iff variants were assigned. A trivial profile
				// must reproduce the unguided bytes to the last byte.
				uopts := gopts
				uopts.Profile = nil
				ucoldRes, err := core.Rewrite(prog.Binary, uopts)
				if err != nil {
					t.Fatalf("%s: unguided counter rewrite: %v", label, err)
				}
				ucold := marshalAndRecycle(ucoldRes)
				if (variants > 0) == bytes.Equal(gcold, ucold) {
					t.Fatalf("%s: guided output %s unguided, but plan assigned %d variants",
						label, eqWord(bytes.Equal(gcold, ucold)), variants)
				}
				topts := gopts
				topts.Profile = &profile.Profile{Arch: a}
				tcoldRes, err := core.Rewrite(prog.Binary, topts)
				if err != nil {
					t.Fatalf("%s: trivial-profile rewrite: %v", label, err)
				}
				diffImages(t, label+"/trivial-profile", ucold, marshalAndRecycle(tcoldRes))
			}
		}
	})
}

func eqWord(eq bool) string {
	if eq {
		return "matches"
	}
	return "differs from"
}

func blockCounter() instrument.Request {
	return instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadCounter}
}

// TestFuzzProfileTotal pins the clamping contract: any int64 quadruple
// maps to a generatable profile (no fuzzer budget burned on rejects).
func TestFuzzProfileTotal(t *testing.T) {
	for _, c := range [][4]int64{
		{0, 0, 0, 0},
		{-1, -1, -1, -1},
		{1 << 62, -(1 << 62), 1<<63 - 1, -1 << 63},
		{17, 1000000, 0xffff, 0x123456},
	} {
		p := fuzzProfile(c[0], c[1], c[2], c[3])
		if p.Funcs < 4 || p.Funcs > 96 {
			t.Fatalf("fuzzProfile(%v).Funcs = %d out of range", c, p.Funcs)
		}
		for _, fr := range []float64{p.SwitchFrac, p.SpillFrac, p.OpaqueFrac, p.TinyFrac, p.TailCallFrac, p.DispatcherFrac} {
			if fr < 0 || fr > 0.76 {
				t.Fatalf("fuzzProfile(%v) fraction %v out of range", c, fr)
			}
		}
		if _, err := workload.Generate(arch.X64, false, p); err != nil {
			t.Fatalf("fuzzProfile(%v) does not generate: %v", c, err)
		}
	}
}
