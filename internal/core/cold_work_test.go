package core

import (
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/workload"
)

// A cold rewrite pays only for cold work: the delta engine's
// bookkeeping exists only for a unit store, and a function's liveness
// only once one of its trampolines needs a scratch register.

// TestColdAnalyzeKeepsNoDeltaState: an Analyze without a unit store
// leaves every unit without a key, read set or dependency edges, and
// still counts every function as recomputed; with a store the units
// carry their identities.
func TestColdAnalyzeKeepsNoDeltaState(t *testing.T) {
	p, err := workload.Generate(arch.X64, true, concurrentProfile())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Analyze(p.Binary, AnalysisConfig{Mode: ModeJT})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range cold.FuncUnits {
		if u.Reads != nil || u.Deps != nil || u.Key != (UnitKey{}) {
			t.Errorf("%s: cold unit carries delta state (key %x, reads %v, deps %v)", u.Name, u.Key.ID[:4], u.Reads, u.Deps)
		}
	}
	if n := len(cold.FuncUnits); cold.Metrics.FuncsRecomputed != n || len(cold.RecomputedNames) != n {
		t.Errorf("cold analysis recomputed %d (%d names) of %d functions", cold.Metrics.FuncsRecomputed, len(cold.RecomputedNames), n)
	}
	stored, err := Analyze(p.Binary, AnalysisConfig{Mode: ModeJT, Units: NewUnitStore(0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range stored.FuncUnits {
		if u.Reads == nil || u.Key.ID == ([32]byte{}) {
			t.Errorf("%s: a unit built for a store carries no identity or read set", u.Name)
		}
	}
}

// TestX64PatchComputesNoLiveness: no x64 trampoline form takes a
// scratch register, so an x64 Patch computes no function's liveness —
// in dir mode too, where jump-table targets are CFL blocks too close
// together for the long form and take multi-hop or trap trampolines.
func TestX64PatchComputesNoLiveness(t *testing.T) {
	p, err := workload.LibxulCached(arch.X64)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeJT, ModeDir} {
		an, err := Analyze(p.Binary, AnalysisConfig{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		res, err := an.Patch(Options{Mode: mode,
			Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadCounter}, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: trampolines %v", mode, res.Metrics.Trampolines)
		if tr := res.Metrics.Trampolines; mode == ModeDir && tr[arch.TrampMulti]+tr[arch.TrampTrap] == 0 {
			t.Errorf("dir: no superblock took the deferred (multi-hop or trap) path")
		}
		for _, u := range an.FuncUnits {
			if u.place.lv != nil {
				t.Errorf("%s: %s: x64 patch computed liveness", mode, u.Name)
			}
		}
	}
}

// TestLivenessOnlyForLongTrampolines: on ppc a function computes its
// liveness exactly when one of its trampolines did not take the short
// form. Without a gap every short branch reaches the relocated code
// and no liveness is computed; a 40 MiB gap puts it beyond the ±32 MiB
// branch, so the functions with trampolines compute it and the rest
// do not.
func TestLivenessOnlyForLongTrampolines(t *testing.T) {
	p, err := workload.Generate(arch.PPC, false, concurrentProfile())
	if err != nil {
		t.Fatal(err)
	}
	for _, gap := range []uint64{0, 40 << 20} {
		an, err := Analyze(p.Binary, AnalysisConfig{Mode: ModeJT})
		if err != nil {
			t.Fatal(err)
		}
		res, err := an.Patch(Options{Mode: ModeJT, InstrGap: gap,
			Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty}})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("gap %d: trampolines %v", gap, res.Metrics.Trampolines)
		computed, long := 0, 0
		for i, u := range an.FuncUnits {
			needs := notShort(t, res.Binary, an, i)
			if needs {
				long++
			}
			if has := u.place.lv != nil; has != needs {
				t.Errorf("gap %d: %s: liveness computed %v, a trampoline other than short %v", gap, u.Name, has, needs)
			}
			if u.place.lv != nil {
				computed++
			}
		}
		if gap == 0 && long != 0 {
			t.Errorf("gap 0: %d functions got trampolines other than short", long)
		}
		if gap != 0 && computed == 0 {
			t.Errorf("gap %d: no function needed a scratch register", gap)
		}
	}
}

// notShort reports whether any trampoline installed for Graph.Funcs[i]
// is something other than a short branch into .instr: a long form, a
// multi-hop's first hop (a branch into scratch space) or a trap.
func notShort(t *testing.T, out *bin.Binary, an *Analysis, i int) bool {
	t.Helper()
	u := an.FuncUnits[i]
	if u.place.sbs == nil {
		return false // never planned: not relocated
	}
	text, instr := out.Text(), out.Section(bin.SecInstr)
	enc := arch.ForArch(out.Arch)
	for _, sb := range u.place.sbs {
		at := sb.Start
		ins, err := enc.Decode(text.Data[at-text.Addr:], at)
		if err == nil && ins.Kind == arch.Mark {
			at += uint64(ins.EncLen)
			ins, err = enc.Decode(text.Data[at-text.Addr:], at)
		}
		if err != nil {
			t.Fatalf("%s: undecodable trampoline at %#x: %v", u.Name, at, err)
		}
		if to, ok := ins.Target(); ins.Kind != arch.Branch || !ok || to < instr.Addr || to >= instr.End() {
			return true
		}
	}
	return false
}
