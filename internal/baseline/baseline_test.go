package baseline

import (
	"errors"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/asm"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/core"
	"icfgpatch/internal/emu"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/rtlib"
)

// testProgram builds a program with calls, a switch and a loop.
func testProgram(t *testing.T, a arch.Arch, pie bool, linkRelocs bool) (*bin.Binary, *asm.DebugInfo) {
	t.Helper()
	b := asm.New(a, pie)
	if linkRelocs {
		b.KeepLinkRelocs()
	}
	inc := b.Func("inc")
	inc.OpI(arch.Add, arch.R0, arch.R1, 1)
	inc.Return()
	b.FuncPtrGlobal("fp", "inc", 0)
	m := b.Func("main")
	m.SetFrame(32)
	m.Li(arch.R3, 0)
	m.Li(arch.R4, 0)
	top := m.Here()
	cases := []asm.Label{m.NewLabel(), m.NewLabel()}
	def := m.NewLabel()
	join := m.NewLabel()
	m.Li(arch.R7, 2)
	m.Op3(arch.Div, arch.R8, arch.R4, arch.R7)
	m.Op3(arch.Mul, arch.R8, arch.R8, arch.R7)
	m.Op3(arch.Sub, arch.R8, arch.R4, arch.R8)
	m.Switch(arch.R8, arch.R9, arch.R10, cases, def, asm.SwitchOpts{})
	m.Bind(cases[0])
	m.OpI(arch.Add, arch.R3, arch.R3, 2)
	m.BranchTo(join)
	m.Bind(cases[1])
	m.StoreLocal(arch.R3, 8)
	m.Mov(arch.R1, arch.R4)
	m.CallF("inc")
	m.LoadLocal(arch.R3, 8)
	m.Op3(arch.Add, arch.R3, arch.R3, arch.R0)
	m.Bind(def)
	m.Bind(join)
	m.OpI(arch.Add, arch.R4, arch.R4, 1)
	m.OpI(arch.Sub, arch.R9, arch.R4, 12)
	m.BranchCondTo(arch.LT, arch.R9, top)
	m.Print(arch.R3)
	m.Halt()
	b.SetEntry("main")
	img, dbg, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return img, dbg
}

func runWith(t *testing.T, img *bin.Binary) (emu.Result, error) {
	t.Helper()
	lib, err := rtlib.Preload(img)
	if err != nil {
		t.Fatal(err)
	}
	m, err := emu.Load(img, emu.Options{Runtime: lib})
	if err != nil {
		return emu.Result{}, err
	}
	return m.Run()
}

func mustRun(t *testing.T, img *bin.Binary) emu.Result {
	t.Helper()
	res, err := runWith(t, img)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestSRBIPreservesBehaviour(t *testing.T) {
	for _, a := range arch.All() {
		img, _ := testProgram(t, a, false, false)
		want := mustRun(t, img)
		res, err := SRBI(img, SRBIOptions{
			Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
			Verify:  true,
		})
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		got := mustRun(t, res.Binary)
		if string(got.Output) != string(want.Output) {
			t.Errorf("%s: output = %q, want %q", a, got.Output, want.Output)
		}
	}
}

func TestSRBISlowerThanOurDirMode(t *testing.T) {
	// Call emulation plus fall-through bounces must cost more than dir
	// mode with RA translation (the Table 3 ordering on X64).
	img, _ := testProgram(t, arch.X64, false, false)
	srbiRes, err := SRBI(img, SRBIOptions{
		Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
		Verify:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dirRes, err := core.Rewrite(img, core.Options{
		Mode:    core.ModeDir,
		Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
		Verify:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srbi := mustRun(t, srbiRes.Binary)
	dir := mustRun(t, dirRes.Binary)
	if srbi.Cycles <= dir.Cycles {
		t.Errorf("SRBI (%d cycles) not slower than dir (%d cycles)", srbi.Cycles, dir.Cycles)
	}
}

func TestSRBILowerCoverageOnSpilledSwitch(t *testing.T) {
	// A switch whose bound is only recoverable via Assumption-2
	// extension: ours instruments the function, SRBI (strict) skips it.
	for _, a := range arch.All() {
		b := asm.New(a, false)
		f := b.Func("main")
		f.SetFrame(32)
		f.Li(arch.R8, 1)
		cases := []asm.Label{f.NewLabel(), f.NewLabel(), f.NewLabel()}
		def := f.NewLabel()
		join := f.NewLabel()
		f.Switch(arch.R8, arch.R9, arch.R10, cases, def, asm.SwitchOpts{SpillIndex: true})
		for _, c := range cases {
			f.Bind(c)
			f.BranchTo(join)
		}
		f.Bind(def)
		f.Bind(join)
		f.Print(arch.R3)
		f.Halt()
		b.SetEntry("main")
		img, _, err := b.Link()
		if err != nil {
			t.Fatal(err)
		}
		srbiRes, err := SRBI(img, SRBIOptions{
			Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
			Verify:  true,
		})
		if err != nil {
			t.Fatalf("%s: srbi rewrite: %v", a, err)
		}
		ourRes, err := core.Rewrite(img, core.Options{
			Mode:    core.ModeJT,
			Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
			Verify:  true,
		})
		if err != nil {
			t.Fatalf("%s: our rewrite: %v", a, err)
		}
		if srbiRes.Stats.Coverage() >= 1 {
			t.Errorf("%s: SRBI coverage = %v, want < 1 (strict bounds)", a, srbiRes.Stats.Coverage())
		}
		if ourRes.Stats.Coverage() != 1 {
			t.Errorf("%s: our coverage = %v, want 1 (bound extension)", a, ourRes.Stats.Coverage())
		}
		// Both still run correctly (SRBI leaves the function alone).
		want := mustRun(t, img)
		if got := mustRun(t, srbiRes.Binary); string(got.Output) != string(want.Output) {
			t.Errorf("%s: srbi output = %q, want %q", a, got.Output, want.Output)
		}
	}
}

func TestSRBIExceptionsFail(t *testing.T) {
	// Call emulation's CallIndMem bug (X64) and the missing fixed-width
	// implementation break exception unwinding through rewritten frames.
	for _, a := range arch.All() {
		b := asm.New(a, false)
		b.SetMeta("lang", "c++")
		b.SetMeta("exceptions", "1")
		th := b.Func("thrower")
		th.Throw()
		th.Return()
		b.FuncPtrGlobal("fp", "thrower", 0)
		m := b.Func("main")
		m.SetFrame(32)
		catch := m.NewLabel()
		m.BeginTry()
		// Indirect call through a stack slot: the x64 call emulation
		// does not emulate these, so a relocated return address lands on
		// the stack and unwinding fails.
		m.LoadGlobal(arch.R9, arch.R9, "fp", 8)
		m.CallStackSlot(arch.R9, 8)
		m.EndTry(catch)
		m.Bind(catch)
		m.Li(arch.R3, 40)
		m.Print(arch.R3)
		m.Halt()
		b.SetEntry("main")
		img, _, err := b.Link()
		if err != nil {
			t.Fatal(err)
		}
		if got := mustRun(t, img); string(got.Output) != "40\n" {
			t.Fatalf("%s: original output = %q", a, got.Output)
		}
		res, err := SRBI(img, SRBIOptions{
			Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
			Verify:  true,
		})
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if _, err := runWith(t, res.Binary); err == nil {
			t.Errorf("%s: SRBI-rewritten exception binary ran — expected unwinding failure", a)
		}
	}
}

func TestIRLowerNearZeroOverheadAndSize(t *testing.T) {
	img, _ := testProgram(t, arch.X64, true, false)
	want := mustRun(t, img)
	res, err := IRLower(img, IRLowerOptions{
		Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := mustRun(t, res.Binary)
	if string(got.Output) != string(want.Output) {
		t.Fatalf("output = %q, want %q", got.Output, want.Output)
	}
	// Near-zero overhead: no trampolines, no bouncing.
	ratio := float64(got.Cycles)/float64(want.Cycles) - 1
	if ratio > 0.02 {
		t.Errorf("IR lowering overhead = %.2f%%, want ~0", ratio*100)
	}
	// Size stays close to the original (text replaced, not added).
	if res.Stats.SizeIncrease() > 0.30 {
		t.Errorf("IR lowering size increase = %.1f%%, want small", res.Stats.SizeIncrease()*100)
	}
	if res.Binary.Section(bin.SecInstr) != nil {
		t.Error("instr section not promoted to text")
	}
}

func TestIRLowerRestrictions(t *testing.T) {
	nopie, _ := testProgram(t, arch.X64, false, false)
	if _, err := IRLower(nopie, IRLowerOptions{}); !errors.Is(err, ErrNeedsPIE) {
		t.Errorf("non-PIE: err = %v, want ErrNeedsPIE", err)
	}

	mk := func(metaK, metaV string) *bin.Binary {
		b := asm.New(arch.X64, true)
		f := b.Func("main")
		f.Halt()
		b.SetMeta(metaK, metaV)
		img, _, err := b.Link()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	if _, err := IRLower(mk("exceptions", "1"), IRLowerOptions{}); !errors.Is(err, ErrExceptions) {
		t.Errorf("exceptions: err = %v", err)
	}
	if _, err := IRLower(mk("go-runtime", "1"), IRLowerOptions{}); !errors.Is(err, ErrGoMeta) {
		t.Errorf("go: err = %v", err)
	}
	if _, err := IRLower(mk("lang", "c++/rust"), IRLowerOptions{}); !errors.Is(err, ErrRustMeta) {
		t.Errorf("rust: err = %v", err)
	}
	if _, err := IRLower(mk("symbol-versioning", "1"), IRLowerOptions{}); !errors.Is(err, ErrSymbolVersioning) {
		t.Errorf("symver: err = %v", err)
	}
}

func TestIRLowerAllOrNothing(t *testing.T) {
	// One opaque-base switch fails the whole binary for IR lowering,
	// while ours instruments everything else.
	b := asm.New(arch.X64, true)
	hard := b.Func("hard")
	hard.SetFrame(16)
	hard.Li(arch.R8, 0)
	cases := []asm.Label{hard.NewLabel(), hard.NewLabel()}
	def := hard.NewLabel()
	join := hard.NewLabel()
	hard.Switch(arch.R8, arch.R9, arch.R10, cases, def, asm.SwitchOpts{OpaqueBase: true})
	// Case bodies are reachable only through the table: unresolved
	// dispatch leaves real-code gaps, so the function fails gracefully.
	hard.Bind(cases[0])
	hard.OpI(arch.Add, arch.R0, arch.R0, 1)
	hard.BranchTo(join)
	hard.Bind(cases[1])
	hard.OpI(arch.Add, arch.R0, arch.R0, 2)
	hard.BranchTo(join)
	hard.Bind(def)
	hard.OpI(arch.Add, arch.R0, arch.R0, 3)
	hard.Bind(join)
	hard.Return()
	m := b.Func("main")
	m.SetFrame(16)
	m.CallF("hard")
	m.Print(arch.R3)
	m.Halt()
	b.SetEntry("main")
	img, _, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := IRLower(img, IRLowerOptions{}); !errors.Is(err, ErrIncomplete) {
		t.Errorf("err = %v, want ErrIncomplete", err)
	}
	ours, err := core.Rewrite(img, core.Options{
		Mode:    core.ModeJT,
		Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
		Verify:  true,
	})
	if err != nil {
		t.Fatalf("incremental rewriting must survive: %v", err)
	}
	if ours.Stats.Coverage() >= 1 || ours.Stats.Coverage() <= 0 {
		t.Errorf("our coverage = %v, want partial", ours.Stats.Coverage())
	}
	want := mustRun(t, img)
	if got := mustRun(t, ours.Binary); string(got.Output) != string(want.Output) {
		t.Errorf("partial rewrite output = %q, want %q", got.Output, want.Output)
	}
}

func TestBOLTFunctionReorderNeedsLinkRelocs(t *testing.T) {
	// Without -Wl,-q: refused, even for PIE.
	for _, pie := range []bool{false, true} {
		img, _ := testProgram(t, arch.X64, pie, false)
		if _, err := BOLTReorderFunctions(img); !errors.Is(err, ErrNeedsLinkRelocs) {
			t.Errorf("pie=%v: err = %v, want ErrNeedsLinkRelocs", pie, err)
		}
	}
	// With link relocs: works and preserves behaviour.
	img, _ := testProgram(t, arch.X64, true, true)
	want := mustRun(t, img)
	res, err := BOLTReorderFunctions(img)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustRun(t, res.Binary); string(got.Output) != string(want.Output) {
		t.Errorf("reordered output = %q, want %q", got.Output, want.Output)
	}
}

func TestBOLTBlockReorderCorruptsJumpTableBinaries(t *testing.T) {
	// A binary with several fragile (inexact-bound) jump tables trips
	// BOLT's layout bug.
	b0 := asm.New(arch.X64, true)
	f0 := b0.Func("main")
	f0.SetFrame(32)
	for k := 0; k < 2; k++ {
		cases := []asm.Label{f0.NewLabel(), f0.NewLabel()}
		def := f0.NewLabel()
		join := f0.NewLabel()
		f0.Li(arch.R8, 1)
		f0.Switch(arch.R8, arch.R9, arch.R10, cases, def, asm.SwitchOpts{SpillIndex: true})
		for _, c := range cases {
			f0.Bind(c)
			f0.BranchTo(join)
		}
		f0.Bind(def)
		f0.Bind(join)
	}
	f0.Print(arch.R3)
	f0.Halt()
	b0.SetEntry("main")
	img, _, err := b0.Link()
	if err != nil {
		t.Fatal(err)
	}
	res, err := BOLTReorderBlocks(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runWith(t, res.Binary); err == nil {
		t.Error("corrupted .interp loaded anyway")
	}

	// A binary without jump tables survives.
	b := asm.New(arch.X64, true)
	f := b.Func("main")
	els := f.NewLabel()
	done := f.NewLabel()
	f.Li(arch.R3, 3)
	f.BranchCondTo(arch.EQ, arch.R3, els)
	f.OpI(arch.Add, arch.R3, arch.R3, 10)
	f.BranchTo(done)
	f.Bind(els)
	f.OpI(arch.Sub, arch.R3, arch.R3, 1)
	f.Bind(done)
	f.Print(arch.R3)
	f.Halt()
	b.SetEntry("main")
	plain, _, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	want := mustRun(t, plain)
	res2, err := BOLTReorderBlocks(plain)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustRun(t, res2.Binary); string(got.Output) != string(want.Output) {
		t.Errorf("block-reordered output = %q, want %q", got.Output, want.Output)
	}
}

func TestOurReorderingWorksEverywhere(t *testing.T) {
	// Section 8.3: our approach reorders functions and blocks for every
	// binary, no relocations required.
	for _, variant := range []core.Variant{{ReverseFuncs: true}, {ReverseBlocks: true}} {
		for _, pie := range []bool{false, true} {
			img, _ := testProgram(t, arch.X64, pie, false)
			want := mustRun(t, img)
			res, err := core.Rewrite(img, core.Options{
				Mode:    core.ModeJT,
				Request: instrument.Request{Where: instrument.FuncEntry, Payload: instrument.PayloadEmpty},
				Verify:  true,
				Variant: variant,
			})
			if err != nil {
				t.Fatalf("variant %+v pie=%v: %v", variant, pie, err)
			}
			if got := mustRun(t, res.Binary); string(got.Output) != string(want.Output) {
				t.Errorf("variant %+v pie=%v: output = %q, want %q", variant, pie, got.Output, want.Output)
			}
		}
	}
}

func TestTable1Shape(t *testing.T) {
	rows := Table1()
	if len(rows) != 7 {
		t.Fatalf("Table 1 has %d rows, want 7", len(rows))
	}
	if rows[len(rows)-1].Approach != "Our work" || rows[len(rows)-1].Unwinding != "Dynamic translation" {
		t.Error("our-work row wrong")
	}
}
