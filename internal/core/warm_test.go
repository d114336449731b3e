package core_test

import (
	"bytes"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/workload"
)

func instrBlockEmpty() instrument.Request {
	return instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty}
}

// ppcInstrGap forces .instr beyond the ±32MB ppc64le branch range so
// long-branch trampolines are exercised (mirrors the experiments
// package's constant).
const ppcInstrGap = 40 << 20

// TestWarmPatchMatchesColdRewrite is the Analyze/Patch split's
// equivalence contract, checked across every arch × mode cell: patching
// against a reused (cached) analysis must produce a rewritten binary
// byte-identical to a cold end-to-end Rewrite.
func TestWarmPatchMatchesColdRewrite(t *testing.T) {
	for _, a := range []arch.Arch{arch.X64, arch.PPC, arch.A64} {
		suite, err := workload.SPECSuiteCached(a, false)
		if err != nil {
			t.Fatalf("%v suite: %v", a, err)
		}
		img := suite[0].Binary
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
				cold, err := core.Rewrite(img, opts)
				if err != nil {
					t.Fatal(err)
				}

				// One analysis, reused for several Patch calls — the store's
				// hit path. Every warm output must match the cold one, and a
				// later warm patch (placements now lazily computed and
				// memoised) must too.
				an, err := core.Analyze(img, core.AnalysisConfig{Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				want := cold.Binary.Marshal()
				for i := 0; i < 2; i++ {
					warm, err := an.Patch(opts)
					if err != nil {
						t.Fatalf("warm patch %d: %v", i, err)
					}
					if !bytes.Equal(want, warm.Binary.Marshal()) {
						t.Fatalf("warm patch %d output differs from cold rewrite", i)
					}
				}

				// A different instrumentation subset against the same analysis
				// must also match its own cold rewrite.
				sub := opts
				syms := img.FuncSymbols()
				sub.Request.Funcs = []string{syms[0].Name, syms[len(syms)/2].Name}
				coldSub, err := core.Rewrite(img, sub)
				if err != nil {
					t.Fatal(err)
				}
				warmSub, err := an.Patch(sub)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(coldSub.Binary.Marshal(), warmSub.Binary.Marshal()) {
					t.Fatal("warm patch with function subset differs from cold rewrite")
				}
			})
		}
	}
}

// TestPatchRejectsMismatchedOptions pins the guard: a Patch whose mode
// or variant differs from the analysis configuration must fail rather
// than silently using the wrong cached artefacts.
func TestPatchRejectsMismatchedOptions(t *testing.T) {
	suite, err := workload.SPECSuiteCached(arch.X64, false)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.Analyze(suite[0].Binary, core.AnalysisConfig{Mode: core.ModeJT})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.Patch(core.Options{Mode: core.ModeDir, Request: instrBlockEmpty()}); err == nil {
		t.Fatal("mode mismatch accepted")
	}
	if _, err := an.Patch(core.Options{Mode: core.ModeJT, Request: instrBlockEmpty(), Variant: core.Variant{NoSuperblocks: true}}); err == nil {
		t.Fatal("variant mismatch accepted")
	}
}

// TestPatchRejectsMismatchedEvidence: the evidence switch is part of the
// analysis identity, so patching an evidence-built analysis with
// NoEvidence set must fail instead of silently serving evidence output.
func TestPatchRejectsMismatchedEvidence(t *testing.T) {
	suite, err := workload.SPECSuiteCached(arch.X64, false)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.Analyze(suite[0].Binary, core.AnalysisConfig{Mode: core.ModeJT})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.Patch(core.Options{Mode: core.ModeJT, Request: instrBlockEmpty(), NoEvidence: true}); err == nil {
		t.Fatal("no-evidence patch of an evidence analysis accepted")
	}
}
