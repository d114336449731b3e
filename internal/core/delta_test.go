package core_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/asm"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/core"
	"icfgpatch/internal/workload"
)

// mutateK is the number of functions perturbed when deriving "version
// 2" of a workload binary.
const mutateK = 3

func deltaOpts(a arch.Arch, mode core.Mode) core.Options {
	var gap uint64
	if a == arch.PPC {
		gap = ppcInstrGap
	}
	return core.Options{Mode: mode, Request: instrBlockEmpty(), InstrGap: gap}
}

// changedByHash diffs the two versions' per-function content hashes:
// the ground-truth changed set, including functions whose own bytes
// moved only inside a neighbour's decode window.
func changedByHash(v1, v2 *bin.Binary) map[string]bool {
	changed := map[string]bool{}
	syms := v1.FuncSymbols()
	h1, h2 := v1.FuncContentHashes(syms), v2.FuncContentHashes(syms)
	for k, sym := range syms {
		if h1[k] != h2[k] {
			changed[sym.Name] = true
		}
	}
	return changed
}

// TestDeltaRewriteMatchesCold is the delta engine's correctness
// contract, checked across every arch × mode cell: rewriting version 2
// of a binary with an analysis assembled partly from version 1's
// function units must produce output byte-identical to a cold rewrite
// of version 2 — while the reuse counters prove the delta actually
// happened.
func TestDeltaRewriteMatchesCold(t *testing.T) {
	for _, a := range []arch.Arch{arch.X64, arch.PPC, arch.A64} {
		suite, err := workload.SPECSuiteCached(a, false)
		if err != nil {
			t.Fatalf("%v suite: %v", a, err)
		}
		v1 := suite[0].Binary
		v2, mutated, err := workload.MutateVersion(v1, mutateK, 7)
		if err != nil {
			t.Fatalf("%v mutate: %v", a, err)
		}
		for _, mode := range []core.Mode{core.ModeDir, core.ModeJT, core.ModeFuncPtr} {
			t.Run(a.String()+"/"+mode.String(), func(t *testing.T) {
				opts := deltaOpts(a, mode)
				units := core.NewUnitStore(0)

				// Version 1, cold against an empty unit store: everything
				// recomputes, and the rewrite matches a store-less one.
				an1, err := core.Analyze(v1, core.AnalysisConfig{Mode: mode, Units: units})
				if err != nil {
					t.Fatal(err)
				}
				if an1.Metrics.FuncsReused != 0 || an1.Metrics.FuncsRecomputed != len(an1.FuncUnits) {
					t.Fatalf("v1 delta = %+v, want all %d recomputed", deltaSummary(an1), len(an1.FuncUnits))
				}
				cold1, err := core.Rewrite(v1, opts)
				if err != nil {
					t.Fatal(err)
				}
				res1, err := an1.Patch(opts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(cold1.Binary.Marshal(), res1.Binary.Marshal()) {
					t.Fatal("v1 unit-assembled rewrite differs from cold rewrite")
				}

				// Version 2 through the warmed store: only the mutated
				// functions and their dependents recompute, and the output is
				// byte-identical to a cold rewrite of version 2.
				an2, err := core.Analyze(v2, core.AnalysisConfig{Mode: mode, Units: units})
				if err != nil {
					t.Fatal(err)
				}
				if an2.Metrics.FuncsReused == 0 {
					t.Fatalf("v2 delta = %+v: nothing reused", deltaSummary(an2))
				}
				if an2.Metrics.FuncsReused+an2.Metrics.FuncsRecomputed != len(an2.FuncUnits) {
					t.Fatalf("v2 delta = %+v does not cover %d funcs", deltaSummary(an2), len(an2.FuncUnits))
				}
				for _, name := range mutated {
					found := false
					for _, rn := range an2.RecomputedNames {
						if rn == name {
							found = true
							break
						}
					}
					if !found {
						t.Errorf("mutated function %s was not recomputed (recomputed: %v)", name, an2.RecomputedNames)
					}
				}
				changed := changedByHash(v1, v2)
				allowed := map[string]bool{}
				for n := range changed {
					allowed[n] = true
				}
				for _, n := range core.Dependents(an1.FuncUnits, changed) {
					allowed[n] = true
				}
				for _, rn := range an2.RecomputedNames {
					if !allowed[rn] {
						t.Errorf("recomputed %s, which neither changed nor depends on a change", rn)
					}
				}

				cold2, err := core.Rewrite(v2, opts)
				if err != nil {
					t.Fatal(err)
				}
				res2, err := an2.Patch(opts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(cold2.Binary.Marshal(), res2.Binary.Marshal()) {
					t.Fatal("v2 delta rewrite differs from cold rewrite")
				}
			})
		}
	}
}

// TestDeltaStrippedRewriteMatchesCold runs the same contract through
// the stripped-binary path: function entries are re-discovered per
// version, and the delta applies to the recovered fn_<addr> functions.
func TestDeltaStrippedRewriteMatchesCold(t *testing.T) {
	for _, a := range []arch.Arch{arch.X64, arch.PPC, arch.A64} {
		t.Run(a.String(), func(t *testing.T) {
			suite, err := workload.SPECSuiteCached(a, false)
			if err != nil {
				t.Fatal(err)
			}
			v1 := suite[0].Binary
			v2, _, err := workload.MutateVersion(v1, mutateK, 11)
			if err != nil {
				t.Fatal(err)
			}
			strip := func(b *bin.Binary) *bin.Binary {
				s := b.Clone()
				s.Symbols = nil
				return s
			}
			s1, s2 := strip(v1), strip(v2)

			opts := deltaOpts(a, core.ModeJT)
			units := core.NewUnitStore(0)
			if _, err := core.Analyze(s1, core.AnalysisConfig{Mode: core.ModeJT, Units: units}); err != nil {
				t.Fatal(err)
			}
			an2, err := core.Analyze(s2, core.AnalysisConfig{Mode: core.ModeJT, Units: units})
			if err != nil {
				t.Fatal(err)
			}
			if an2.Metrics.FuncsReused == 0 {
				t.Fatalf("stripped v2 delta = %+v: nothing reused", deltaSummary(an2))
			}
			if an2.Metrics.FuncsRecomputed == 0 {
				t.Fatalf("stripped v2 delta = %+v: mutation invisible", deltaSummary(an2))
			}
			cold2, err := core.Rewrite(s2, opts)
			if err != nil {
				t.Fatal(err)
			}
			res2, err := an2.Patch(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cold2.Binary.Marshal(), res2.Binary.Marshal()) {
				t.Fatal("stripped delta rewrite differs from cold rewrite")
			}
		})
	}
}

// neighbourFixture builds the jump-table-coupling fixture: alpha's
// spilled-index switch gets an inexact bound, capped by the boundary
// hint that beta's table-base movabs materialises (beta's table sits
// right after alpha's in .rodata). leaf1/leaf2 are bystanders; main
// calls everyone.
func neighbourFixture(t *testing.T) *bin.Binary {
	t.Helper()
	b := asm.New(arch.X64, false)

	alpha := b.Func("alpha")
	alpha.SetFrame(32)
	cases := make([]asm.Label, 24)
	for i := range cases {
		cases[i] = alpha.NewLabel()
	}
	def := alpha.NewLabel()
	join := alpha.NewLabel()
	alpha.Switch(arch.R8, arch.R9, arch.R10, cases, def, asm.SwitchOpts{SpillIndex: true})
	for i, c := range cases {
		alpha.Bind(c)
		alpha.OpI(arch.Add, arch.R0, arch.R1, int64(2*i+1))
		alpha.BranchTo(join)
	}
	alpha.Bind(def)
	alpha.OpI(arch.Add, arch.R0, arch.R1, 501)
	alpha.Bind(join)
	alpha.Return()

	beta := b.Func("beta")
	beta.SetFrame(32)
	bcases := make([]asm.Label, 8)
	for i := range bcases {
		bcases[i] = beta.NewLabel()
	}
	bdef := beta.NewLabel()
	bjoin := beta.NewLabel()
	beta.Switch(arch.R8, arch.R9, arch.R10, bcases, bdef, asm.SwitchOpts{})
	for i, c := range bcases {
		beta.Bind(c)
		beta.OpI(arch.Add, arch.R0, arch.R1, int64(3*i+2))
		beta.BranchTo(bjoin)
	}
	beta.Bind(bdef)
	beta.OpI(arch.Add, arch.R0, arch.R1, 777)
	beta.Bind(bjoin)
	beta.Return()

	for _, name := range []string{"leaf1", "leaf2"} {
		lf := b.Func(name)
		lf.OpI(arch.Add, arch.R0, arch.R1, 5)
		lf.Return()
	}

	m := b.Func("main")
	m.SetFrame(48)
	m.Li(arch.R3, 0)
	for _, callee := range []string{"alpha", "beta", "leaf1", "leaf2"} {
		m.Li(arch.R8, 3)
		m.Li(arch.R1, 9)
		m.CallF(callee)
		m.Op3(arch.Add, arch.R3, arch.R3, arch.R0)
	}
	m.Print(arch.R3)
	m.Li(arch.R0, 0)
	m.Halt()
	b.SetEntry("main")

	img, _, err := b.Link()
	if err != nil {
		t.Fatalf("linking neighbour fixture: %v", err)
	}
	return img
}

// TestDeltaJumpTableNeighbourInvalidation mutates beta so the boundary
// hint bounding alpha's inexact jump table moves: beta's table-base
// movabs is retargeted 8 bytes lower. alpha's own bytes are untouched —
// its content hash is unchanged — yet its recorded boundary query now
// answers differently, so the delta engine must recompute it (plus beta
// itself and main, whose dependency index references beta) while still
// reusing the leaves, and the delta rewrite must stay byte-identical to
// cold.
func TestDeltaJumpTableNeighbourInvalidation(t *testing.T) {
	v1 := neighbourFixture(t)

	// Locate beta's table-base movabs: the MovImm materialising a
	// .rodata address.
	var site arch.Instr
	for _, sym := range v1.FuncSymbols() {
		if sym.Name != "beta" {
			continue
		}
		text := v1.SectionAt(sym.Addr)
		data := text.Data[sym.Addr-text.Addr : sym.Addr+sym.Size-text.Addr]
		for _, ins := range arch.DecodeAll(v1.Arch, data, sym.Addr) {
			if ins.Kind == arch.MovImm && v1.SectionAt(uint64(ins.Imm)) != nil {
				site = ins
				break
			}
		}
	}
	if site.Kind != arch.MovImm {
		t.Fatal("fixture: no table-base movabs found in beta")
	}

	v2 := v1.Clone()
	edited := site
	edited.Imm -= 8
	raw, err := arch.ForArch(v1.Arch).Append(nil, edited)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != site.EncLen {
		t.Fatalf("edit changed encoding length (%d -> %d)", site.EncLen, len(raw))
	}
	if err := v2.WriteAt(site.Addr, raw); err != nil {
		t.Fatal(err)
	}
	if changed := changedByHash(v1, v2); !changed["beta"] || changed["alpha"] {
		t.Fatalf("hash diff = %v, want beta changed and alpha not", changed)
	}

	units := core.NewUnitStore(0)
	opts := core.Options{Mode: core.ModeJT, Request: instrBlockEmpty()}
	if _, err := core.Analyze(v1, core.AnalysisConfig{Mode: core.ModeJT, Units: units}); err != nil {
		t.Fatal(err)
	}
	an2, err := core.Analyze(v2, core.AnalysisConfig{Mode: core.ModeJT, Units: units})
	if err != nil {
		t.Fatal(err)
	}
	got := append([]string(nil), an2.RecomputedNames...)
	sort.Strings(got)
	want := []string{"alpha", "beta", "main"}
	if len(got) != len(want) {
		t.Fatalf("recomputed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recomputed %v, want %v", got, want)
		}
	}
	if an2.Metrics.FuncsReused != 2 {
		t.Fatalf("reused = %d, want 2 (the leaves)", an2.Metrics.FuncsReused)
	}

	cold2, err := core.Rewrite(v2, opts)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := an2.Patch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold2.Binary.Marshal(), res2.Binary.Marshal()) {
		t.Fatal("delta rewrite after neighbour invalidation differs from cold rewrite")
	}
}

// TestDeltaRecomputeBound is the make-check gate: on a K-of-N mutated
// workload, the delta engine recomputes AT MOST the hash-changed
// functions plus their dependency-index dependents — counter-verified,
// not timing-based.
func TestDeltaRecomputeBound(t *testing.T) {
	suite, err := workload.SPECSuiteCached(arch.X64, false)
	if err != nil {
		t.Fatal(err)
	}
	v1 := suite[0].Binary
	const k = 4
	v2, mutated, err := workload.MutateVersion(v1, k, 23)
	if err != nil {
		t.Fatal(err)
	}

	units := core.NewUnitStore(0)
	an1, err := core.Analyze(v1, core.AnalysisConfig{Mode: core.ModeJT, Units: units})
	if err != nil {
		t.Fatal(err)
	}
	an2, err := core.Analyze(v2, core.AnalysisConfig{Mode: core.ModeJT, Units: units})
	if err != nil {
		t.Fatal(err)
	}

	changed := changedByHash(v1, v2)
	for _, name := range mutated {
		if !changed[name] {
			t.Fatalf("mutated %s but its content hash did not change", name)
		}
	}
	deps := core.Dependents(an1.FuncUnits, changed)
	bound := len(changed) + len(deps)
	if an2.Metrics.FuncsRecomputed > bound {
		t.Fatalf("recomputed %d funcs (%v), bound is %d changed + %d dependents",
			an2.Metrics.FuncsRecomputed, an2.RecomputedNames, len(changed), len(deps))
	}
	if an2.Metrics.FuncsReused != len(an2.FuncUnits)-an2.Metrics.FuncsRecomputed {
		t.Fatalf("reused = %d, recomputed = %d, funcs = %d", an2.Metrics.FuncsReused, an2.Metrics.FuncsRecomputed, len(an2.FuncUnits))
	}
	if an2.Metrics.FuncsReused == 0 {
		t.Fatal("nothing reused")
	}
	t.Logf("N=%d K=%d changed=%d dependents=%d recomputed=%d reused=%d",
		len(an2.FuncUnits), k, len(changed), len(deps), an2.Metrics.FuncsRecomputed, an2.Metrics.FuncsReused)
}

// deltaSummary renders an analysis's delta split for failure messages.
func deltaSummary(an *core.Analysis) string {
	return fmt.Sprintf("%d reused, %d recomputed %v", an.Metrics.FuncsReused, an.Metrics.FuncsRecomputed, an.RecomputedNames)
}
