package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/asm"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/cfg"
	"icfgpatch/internal/emu"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/rtlib"
)

// richProgram builds a program exercising every rewriting concern:
// loops, a jump table switch, direct and indirect calls, an indirect
// call through a stack slot, an indirect tail call, and recursion.
func richProgram(a arch.Arch, pie bool) *asm.Builder {
	b := asm.New(a, pie)

	add5 := b.Func("add5")
	add5.OpI(arch.Add, arch.R0, arch.R1, 5)
	add5.Return()

	dbl := b.Func("dbl")
	dbl.Op3(arch.Add, arch.R0, arch.R1, arch.R1)
	dbl.Return()

	b.FuncPtrGlobal("fp_add5", "add5", 0)
	b.FuncPtrGlobal("fp_dbl", "dbl", 0)

	fin := b.Func("finisher")
	fin.OpI(arch.Add, arch.R0, arch.R1, 3)
	fin.Return()
	b.FuncPtrGlobal("fp_fin", "finisher", 0)

	hop := b.Func("hop")
	hop.OpI(arch.Add, arch.R1, arch.R1, 100)
	hop.LoadGlobal(arch.R9, arch.R9, "fp_fin", 8)
	hop.TailJumpReg(arch.R9)

	fib := b.Func("fib")
	fib.SetFrame(32)
	base := fib.NewLabel()
	fib.OpI(arch.Sub, arch.R6, arch.R1, 2)
	fib.BranchCondTo(arch.LT, arch.R6, base)
	fib.StoreLocal(arch.R1, 8)
	fib.OpI(arch.Sub, arch.R1, arch.R1, 1)
	fib.CallF("fib")
	fib.StoreLocal(arch.R0, 16)
	fib.LoadLocal(arch.R1, 8)
	fib.OpI(arch.Sub, arch.R1, arch.R1, 2)
	fib.CallF("fib")
	fib.LoadLocal(arch.R2, 16)
	fib.Op3(arch.Add, arch.R0, arch.R0, arch.R2)
	fib.Return()
	fib.Bind(base)
	fib.Mov(arch.R0, arch.R1)
	fib.Return()

	m := b.Func("main")
	m.SetFrame(64)
	m.Li(arch.R3, 0) // acc
	m.Li(arch.R4, 0) // i
	top := m.Here()
	// idx = i % 4 through a jump table.
	m.Li(arch.R7, 4)
	m.Op3(arch.Div, arch.R8, arch.R4, arch.R7)
	m.Op3(arch.Mul, arch.R8, arch.R8, arch.R7)
	m.Op3(arch.Sub, arch.R8, arch.R4, arch.R8)
	cases := []asm.Label{m.NewLabel(), m.NewLabel(), m.NewLabel(), m.NewLabel()}
	def := m.NewLabel()
	join := m.NewLabel()
	m.Switch(arch.R8, arch.R9, arch.R10, cases, def, asm.SwitchOpts{})
	m.Bind(cases[0])
	m.OpI(arch.Add, arch.R3, arch.R3, 1)
	m.BranchTo(join)
	m.Bind(cases[1])
	m.StoreLocal(arch.R3, 32)
	m.Mov(arch.R1, arch.R4)
	m.CallPtr(arch.R9, "fp_add5")
	m.LoadLocal(arch.R3, 32)
	m.Op3(arch.Add, arch.R3, arch.R3, arch.R0)
	m.BranchTo(join)
	m.Bind(cases[2])
	m.StoreLocal(arch.R3, 32)
	m.Mov(arch.R1, arch.R4)
	m.LoadGlobal(arch.R9, arch.R9, "fp_dbl", 8)
	m.CallStackSlot(arch.R9, 40)
	m.LoadLocal(arch.R3, 32)
	m.Op3(arch.Add, arch.R3, arch.R3, arch.R0)
	m.BranchTo(join)
	m.Bind(cases[3])
	m.StoreLocal(arch.R3, 32)
	m.Mov(arch.R1, arch.R4)
	m.CallF("hop")
	m.LoadLocal(arch.R3, 32)
	m.Op3(arch.Add, arch.R3, arch.R3, arch.R0)
	m.BranchTo(join)
	m.Bind(def)
	m.OpI(arch.Add, arch.R3, arch.R3, 1000)
	m.Bind(join)
	m.OpI(arch.Add, arch.R4, arch.R4, 1)
	m.OpI(arch.Sub, arch.R9, arch.R4, 20)
	m.BranchCondTo(arch.LT, arch.R9, top)
	m.Print(arch.R3)
	m.StoreLocal(arch.R3, 32)
	m.Li(arch.R1, 12)
	m.CallF("fib")
	m.Print(arch.R0)
	m.Li(arch.R0, 0)
	m.Halt()
	b.SetEntry("main")
	return b
}

// rewriteAndRun rewrites the binary and runs it with the runtime library
// preloaded.
func rewriteAndRun(t *testing.T, img *bin.Binary, opts Options) (emu.Result, *Result) {
	t.Helper()
	res, err := Rewrite(img, opts)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	lib, err := rtlib.Preload(res.Binary)
	if err != nil {
		t.Fatalf("preload: %v", err)
	}
	m, err := emu.Load(res.Binary, emu.Options{Runtime: lib})
	if err != nil {
		t.Fatalf("load rewritten: %v", err)
	}
	out, err := m.Run()
	if err != nil {
		t.Fatalf("run rewritten (%s): %v", opts.Mode, err)
	}
	return out, res
}

// runOriginal executes the unmodified binary.
func runOriginal(t *testing.T, img *bin.Binary, profile []uint64) emu.Result {
	t.Helper()
	m, err := emu.Load(img, emu.Options{ProfileAddrs: profile})
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Run()
	if err != nil {
		t.Fatalf("run original: %v", err)
	}
	return out
}

func eachConfig(t *testing.T, body func(t *testing.T, a arch.Arch, pie bool)) {
	for _, a := range arch.All() {
		for _, pie := range []bool{false, true} {
			name := fmt.Sprintf("%s/pie=%v", a, pie)
			t.Run(name, func(t *testing.T) { body(t, a, pie) })
		}
	}
}

func TestRewriteAllModesPreservesBehaviour(t *testing.T) {
	eachConfig(t, func(t *testing.T, a arch.Arch, pie bool) {
		img, _, err := richProgram(a, pie).Link()
		if err != nil {
			t.Fatal(err)
		}
		want := runOriginal(t, img, nil)
		for _, mode := range []Mode{ModeDir, ModeJT, ModeFuncPtr} {
			got, res := rewriteAndRun(t, img, Options{
				Mode:    mode,
				Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
				Verify:  true,
			})
			if string(got.Output) != string(want.Output) {
				t.Errorf("%s: output = %q, want %q", mode, got.Output, want.Output)
			}
			if res.Stats.Coverage() != 1 {
				t.Errorf("%s: coverage = %v, want 1 (no hard constructs here)", mode, res.Stats.Coverage())
			}
			if got.Cycles <= want.Cycles {
				t.Logf("%s: rewritten ran faster (%d vs %d cycles) — unusual but not wrong", mode, got.Cycles, want.Cycles)
			}
		}
	})
}

func TestModeOverheadOrdering(t *testing.T) {
	// jt must not bounce through .text on jump-table dispatch, so it
	// must be cheaper than dir; func-ptr must not bounce on indirect
	// calls either.
	eachConfig(t, func(t *testing.T, a arch.Arch, pie bool) {
		img, _, err := richProgram(a, pie).Link()
		if err != nil {
			t.Fatal(err)
		}
		cycles := map[Mode]uint64{}
		for _, mode := range []Mode{ModeDir, ModeJT, ModeFuncPtr} {
			got, _ := rewriteAndRun(t, img, Options{
				Mode:    mode,
				Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
				Verify:  true,
			})
			cycles[mode] = got.Cycles
		}
		if cycles[ModeJT] > cycles[ModeDir] {
			t.Errorf("jt (%d cycles) slower than dir (%d cycles)", cycles[ModeJT], cycles[ModeDir])
		}
		if cycles[ModeFuncPtr] > cycles[ModeJT] {
			t.Errorf("func-ptr (%d cycles) slower than jt (%d cycles)", cycles[ModeFuncPtr], cycles[ModeJT])
		}
	})
}

func TestInstrumentationIntegrityCounters(t *testing.T) {
	// Counter instrumentation must observe exactly the original block
	// execution counts: trampolines on every unrewritten edge, no
	// skipped or double-counted instrumentation.
	eachConfig(t, func(t *testing.T, a arch.Arch, pie bool) {
		img, _, err := richProgram(a, pie).Link()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Rewrite(img, Options{
			Mode:    ModeJT,
			Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadCounter},
			Verify:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var points []uint64
		for p := range res.CounterCells {
			points = append(points, p)
		}
		want := runOriginal(t, img, points)

		lib, err := rtlib.Preload(res.Binary)
		if err != nil {
			t.Fatal(err)
		}
		m, err := emu.Load(res.Binary, emu.Options{Runtime: lib})
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Run()
		if err != nil {
			t.Fatalf("run rewritten: %v", err)
		}
		if string(got.Output) != string(want.Output) {
			t.Fatalf("output diverged: %q vs %q", got.Output, want.Output)
		}
		checked := 0
		for point, cell := range res.CounterCells {
			cnt, err := m.MemRead(cell, 8)
			if err != nil {
				t.Fatal(err)
			}
			if cnt != want.Profile[point] {
				t.Errorf("block %#x: counter = %d, ground truth = %d", point, cnt, want.Profile[point])
			}
			checked++
		}
		if checked < 10 {
			t.Errorf("only %d counters checked — program too small for the test to mean anything", checked)
		}
	})
}

func TestExceptionsAcrossRewriting(t *testing.T) {
	build := func(a arch.Arch, pie bool) *bin.Binary {
		b := asm.New(a, pie)
		b.SetMeta("lang", "c++")
		b.SetMeta("exceptions", "1")
		th := b.Func("thrower")
		skip := th.NewLabel()
		th.BranchCondTo(arch.EQ, arch.R1, skip)
		th.Throw()
		th.Bind(skip)
		th.Li(arch.R0, 7)
		th.Return()
		mid := b.Func("mid")
		mid.SetFrame(24)
		mid.CallF("thrower")
		mid.Return()
		m := b.Func("main")
		m.SetFrame(48)
		catch := m.NewLabel()
		done := m.NewLabel()
		m.Li(arch.R3, 0)
		m.Li(arch.R1, 0)
		m.BeginTry()
		m.CallF("mid")
		m.EndTry(catch)
		m.Op3(arch.Add, arch.R3, arch.R3, arch.R0) // +7 on the non-throw path
		m.Li(arch.R1, 1)
		m.BeginTry()
		m.CallF("mid")
		m.EndTry(catch)
		m.OpI(arch.Add, arch.R3, arch.R3, 999) // skipped: throw path
		m.BranchTo(done)
		m.Bind(catch)
		m.OpI(arch.Add, arch.R3, arch.R3, 40)
		m.Bind(done)
		m.Print(arch.R3)
		m.Halt()
		b.SetEntry("main")
		img, _, err := b.Link()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	eachConfig(t, func(t *testing.T, a arch.Arch, pie bool) {
		img := build(a, pie)
		want := runOriginal(t, img, nil)
		if string(want.Output) != "47\n" {
			t.Fatalf("original output = %q, want 47", want.Output)
		}
		got, res := rewriteAndRun(t, img, Options{
			Mode:    ModeJT,
			Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
			Verify:  true,
		})
		if string(got.Output) != "47\n" {
			t.Errorf("rewritten output = %q", got.Output)
		}
		if res.Stats.RAMapEntries == 0 {
			t.Error("no return-address map entries for an exception-throwing binary")
		}
		if res.Binary.Meta[rtlib.MetaWrapUnwind] != "1" {
			t.Error("unwind wrapping not requested in the rewritten binary")
		}

		// Without the RA map, unwinding must fail (Section 6's premise).
		broken, err := Rewrite(img, Options{
			Mode:    ModeJT,
			Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
			Verify:  true,
			NoRAMap: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		lib, _ := rtlib.Preload(broken.Binary)
		m, err := emu.Load(broken.Binary, emu.Options{Runtime: lib})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); !emu.IsFault(err, emu.FaultUnwind) {
			t.Errorf("run without RA map: err = %v, want unwind fault", err)
		}
	})
}

func TestGoRuntimeTraceback(t *testing.T) {
	build := func(a arch.Arch, pie bool) *bin.Binary {
		b := asm.New(a, pie)
		b.SetMeta("lang", "go")
		b.SetMeta("go-runtime", "1")
		// Stub runtime functions the rewriter instruments.
		ff := b.Func("runtime.findfunc")
		ff.Return()
		pv := b.Func("runtime.pcvalue")
		pv.Return()
		leaf := b.Func("leaf")
		leaf.SetFrame(16)
		leaf.I(arch.Instr{Kind: arch.Syscall, Imm: emu.SysTraceback})
		leaf.Return()
		m := b.Func("main")
		m.SetFrame(32)
		m.Li(arch.R4, 3)
		top := m.Here()
		m.CallF("leaf")
		m.OpI(arch.Sub, arch.R4, arch.R4, 1)
		m.BranchCondTo(NEq(), arch.R4, top)
		m.Print(arch.R0)
		m.Halt()
		b.SetEntry("main")
		img, _, err := b.Link()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	eachConfig(t, func(t *testing.T, a arch.Arch, pie bool) {
		img := build(a, pie)
		want := runOriginal(t, img, nil)
		got, res := rewriteAndRun(t, img, Options{
			Mode:    ModeJT,
			Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
			Verify:  true,
		})
		if string(got.Output) != string(want.Output) {
			t.Errorf("traceback output diverged: %q vs %q", got.Output, want.Output)
		}
		if res.Binary.Meta[rtlib.MetaGoPatch] != "1" {
			t.Error("go runtime patching not requested")
		}
		// Without the RA map, the Go runtime must abort.
		broken, err := Rewrite(img, Options{
			Mode:    ModeJT,
			Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
			Verify:  true,
			NoRAMap: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		lib, _ := rtlib.Preload(broken.Binary)
		m, _ := emu.Load(broken.Binary, emu.Options{Runtime: lib})
		if _, err := m.Run(); !emu.IsFault(err, emu.FaultGoRuntime) {
			t.Errorf("run without RA map: err = %v, want go runtime fault", err)
		}
	})
}

// NEq avoids a collision with the asm import in this file's builders.
func NEq() arch.Cond { return arch.NE }

func TestPartialInstrumentation(t *testing.T) {
	eachConfig(t, func(t *testing.T, a arch.Arch, pie bool) {
		img, dbg, err := richProgram(a, pie).Link()
		if err != nil {
			t.Fatal(err)
		}
		want := runOriginal(t, img, nil)
		got, res := rewriteAndRun(t, img, Options{
			Mode: ModeJT,
			Request: instrument.Request{
				Where:   instrument.BlockEntry,
				Payload: instrument.PayloadEmpty,
				Funcs:   []string{"fib", "add5"},
			},
			Verify: true,
		})
		if string(got.Output) != string(want.Output) {
			t.Errorf("output = %q, want %q", got.Output, want.Output)
		}
		if res.Stats.InstrumentedFuncs != 2 {
			t.Errorf("instrumented %d functions, want 2", res.Stats.InstrumentedFuncs)
		}
		// Untouched functions keep their original bytes.
		text := res.Binary.Text()
		orig := img.Text()
		start, end := dbg.FuncStart["main"], dbg.FuncEnd["main"]
		for addr := start; addr < end; addr++ {
			if text.Data[addr-text.Addr] != orig.Data[addr-orig.Addr] {
				t.Fatalf("byte at %#x of uninstrumented main changed", addr)
			}
		}
	})
}

func TestFuncPtrModeRefusesImprecisePointers(t *testing.T) {
	// A data cell holding a mid-instruction code address (the Go
	// function table situation) must make func-ptr mode fail while jt
	// still works.
	for _, a := range arch.All() {
		b := asm.New(a, false)
		f := b.Func("main")
		f.Li(arch.R3, 1)
		f.Print(arch.R3)
		f.Halt()
		// Slot value: main entry + 2 — never an instruction boundary on
		// fixed-width ISAs; on X64 it lands inside the 10-byte movimm.
		b.FuncPtrGlobal("vtab", "main", 2)
		img, _, err := b.Link()
		if err != nil {
			t.Fatal(err)
		}
		_, err = Rewrite(img, Options{
			Mode:    ModeFuncPtr,
			Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
		})
		if !errors.Is(err, ErrImpreciseFuncPtrs) {
			t.Errorf("%s: err = %v, want ErrImpreciseFuncPtrs", a, err)
		}
		if _, err := Rewrite(img, Options{
			Mode:    ModeJT,
			Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
		}); err != nil {
			t.Errorf("%s: jt mode must still work: %v", a, err)
		}
	}
}

func TestGoexitPlusOnePattern(t *testing.T) {
	// Listing 1: a relocated function pointer with +nop arithmetic must
	// keep working in func-ptr mode (the pointer maps to the relocated
	// instruction after the nop).
	eachConfig(t, func(t *testing.T, a arch.Arch, pie bool) {
		nopLen := int64(1)
		if a.FixedWidth() {
			nopLen = 4
		}
		b := asm.New(a, pie)
		gx := b.Func("goexit")
		gx.Nop()
		gx.OpI(arch.Add, arch.R0, arch.R1, 1)
		gx.Return()
		b.FuncPtrGlobal("fp1", "goexit", nopLen)
		m := b.Func("main")
		m.SetFrame(16)
		m.Li(arch.R1, 41)
		m.CallPtr(arch.R9, "fp1")
		m.Print(arch.R0)
		m.Halt()
		b.SetEntry("main")
		img, _, err := b.Link()
		if err != nil {
			t.Fatal(err)
		}
		got, res := rewriteAndRun(t, img, Options{
			Mode:    ModeFuncPtr,
			Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
			Verify:  true,
		})
		if string(got.Output) != "42\n" {
			t.Errorf("output = %q, want 42", got.Output)
		}
		if res.Stats.RewrittenPtrs == 0 {
			t.Error("no pointers rewritten in func-ptr mode")
		}
	})
}

func TestDirModeLeavesTablesAndBouncesThroughText(t *testing.T) {
	eachConfig(t, func(t *testing.T, a arch.Arch, pie bool) {
		img, _, err := richProgram(a, pie).Link()
		if err != nil {
			t.Fatal(err)
		}
		_, dirRes := rewriteAndRun(t, img, Options{
			Mode:    ModeDir,
			Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
			Verify:  true,
		})
		_, jtRes := rewriteAndRun(t, img, Options{
			Mode:    ModeJT,
			Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
			Verify:  true,
		})
		if dirRes.Metrics.ClonedTables != 0 {
			t.Error("dir mode cloned jump tables")
		}
		if jtRes.Metrics.ClonedTables == 0 {
			t.Error("jt mode cloned no jump tables")
		}
		if dirRes.Metrics.CFLBlocks <= jtRes.Metrics.CFLBlocks {
			t.Errorf("dir CFL blocks (%d) must exceed jt CFL blocks (%d)",
				dirRes.Metrics.CFLBlocks, jtRes.Metrics.CFLBlocks)
		}
		if jtRes.Binary.Section(bin.SecJTClone) == nil {
			t.Error("jt mode emitted no clone section")
		}
	})
}

func TestForcedGapDrivesLongTrampolinesOnPPC(t *testing.T) {
	img, _, err := richProgram(arch.PPC, false).Link()
	if err != nil {
		t.Fatal(err)
	}
	want := runOriginal(t, img, nil)
	// Force .instr beyond the ±32MB branch range.
	got, res := rewriteAndRun(t, img, Options{
		Mode:     ModeJT,
		Request:  instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
		Verify:   true,
		InstrGap: 48 << 20,
	})
	if string(got.Output) != string(want.Output) {
		t.Errorf("output = %q, want %q", got.Output, want.Output)
	}
	longish := res.Metrics.Trampolines[arch.TrampLong] + res.Metrics.Trampolines[arch.TrampLongSpill]
	if longish == 0 {
		t.Errorf("no long trampolines despite a 48MB gap: %v", res.Metrics.Trampolines)
	}
	if res.Metrics.Trampolines[arch.TrampShort] != 0 {
		t.Errorf("single-branch trampolines cannot reach across a 48MB gap: %v", res.Metrics.Trampolines)
	}
}

func TestRewrittenBinaryFailsWithoutRuntimeLibrary(t *testing.T) {
	// A rewritten binary that needed trap trampolines must fault when
	// the runtime library is not preloaded.
	img, _, err := richProgram(arch.PPC, false).Link()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Rewrite(img, Options{
		Mode:     ModeDir,
		Request:  instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
		Verify:   true,
		InstrGap: 48 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.TrapCount() == 0 {
		t.Skip("no trap trampolines were needed; nothing to demonstrate")
	}
	m, err := emu.Load(res.Binary, emu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Error("rewritten binary with trap trampolines ran without the runtime library")
	}
}

func TestStatsShape(t *testing.T) {
	img, _, err := richProgram(arch.X64, true).Link()
	if err != nil {
		t.Fatal(err)
	}
	_, res := rewriteAndRun(t, img, Options{
		Mode:    ModeJT,
		Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
		Verify:  true,
	})
	s, m := res.Stats, res.Metrics
	if s.TotalFuncs < 6 || s.InstrumentedFuncs != s.TotalFuncs {
		t.Errorf("funcs: %d/%d", s.InstrumentedFuncs, s.TotalFuncs)
	}
	if s.SizeIncrease() <= 0 {
		t.Error("rewritten binary not larger than original")
	}
	if m.CFLBlocks == 0 || m.ScratchBlocks == 0 {
		t.Errorf("placement counters empty: %+v", m)
	}
	if total := m.TrampolineTotal(); total < m.CFLBlocks {
		t.Errorf("%d trampolines for %d CFL blocks", total, m.CFLBlocks)
	}
	if !strings.Contains(ModeFuncPtr.String(), "func-ptr") {
		t.Error("mode stringer wrong")
	}
}

func TestArbitraryInstrumentationPoints(t *testing.T) {
	// The Dyninst API model: instrument two specific mid-block
	// instructions with counters; counts must equal the ground-truth
	// execution counts of exactly those instructions, and only the
	// containing functions may be touched.
	eachConfig(t, func(t *testing.T, a arch.Arch, pie bool) {
		img, dbg, err := richProgram(a, pie).Link()
		if err != nil {
			t.Fatal(err)
		}
		// Pick the 3rd instruction of fib and the 2nd of add5.
		text := img.Text()
		pick := func(name string, k int) uint64 {
			start, end := dbg.FuncStart[name], dbg.FuncEnd[name]
			ins := arch.DecodeAll(a, text.Data[start-text.Addr:end-text.Addr], start)
			if len(ins) <= k {
				t.Fatalf("%s too short", name)
			}
			return ins[k].Addr
		}
		points := []uint64{pick("fib", 2), pick("add5", 1)}
		want := runOriginal(t, img, points)

		res, err := Rewrite(img, Options{
			Mode: ModeJT,
			Request: instrument.Request{
				Where:   instrument.AtAddrs,
				Payload: instrument.PayloadCounter,
				Addrs:   points,
			},
			Verify: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.InstrumentedFuncs != 2 {
			t.Errorf("instrumented %d functions, want 2 (fib, add5)", res.Stats.InstrumentedFuncs)
		}
		lib, err := rtlib.Preload(res.Binary)
		if err != nil {
			t.Fatal(err)
		}
		m, err := emu.Load(res.Binary, emu.Options{Runtime: lib})
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if string(got.Output) != string(want.Output) {
			t.Fatalf("output diverged: %q vs %q", got.Output, want.Output)
		}
		for _, p := range points {
			cell, ok := res.CounterCells[p]
			if !ok {
				t.Fatalf("no counter for point %#x", p)
			}
			cnt, err := m.MemRead(cell, 8)
			if err != nil {
				t.Fatal(err)
			}
			if cnt == 0 || cnt != want.Profile[p] {
				t.Errorf("point %#x: counter %d, ground truth %d", p, cnt, want.Profile[p])
			}
		}
	})
}

func TestFastUnwinderWithRATranslation(t *testing.T) {
	// The frdwarf adaptation (Section 2.3): RA translation works
	// unchanged with a compiled, non-DWARF unwinder, and exception-heavy
	// code gets cheaper. A DWARF-rewriting approach has nothing to plug
	// into here.
	b := asm.New(arch.X64, false)
	b.SetMeta("lang", "c++")
	b.SetMeta("exceptions", "1")
	th := b.Func("thrower")
	th.Throw()
	th.Return()
	mid := b.Func("mid")
	mid.SetFrame(24)
	mid.CallF("thrower")
	mid.Return()
	m := b.Func("main")
	m.SetFrame(48)
	m.Li(arch.R4, 50)
	top := m.Here()
	catch := m.NewLabel()
	cont := m.NewLabel()
	m.StoreLocal(arch.R4, 16)
	m.BeginTry()
	m.CallF("mid")
	m.EndTry(catch)
	m.Bind(catch)
	m.LoadLocal(arch.R4, 16)
	m.OpI(arch.Add, arch.R3, arch.R3, 1)
	m.Bind(cont)
	m.OpI(arch.Sub, arch.R4, arch.R4, 1)
	m.BranchCondTo(arch.NE, arch.R4, top)
	m.Print(arch.R3)
	m.Halt()
	b.SetEntry("main")
	img, _, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}

	res, err := Rewrite(img, Options{
		Mode:    ModeJT,
		Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
		Verify:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	lib, err := rtlib.Preload(res.Binary)
	if err != nil {
		t.Fatal(err)
	}
	runWith := func(fast bool) emu.Result {
		mach, err := emu.Load(res.Binary, emu.Options{Runtime: lib, FastUnwind: fast})
		if err != nil {
			t.Fatal(err)
		}
		out, err := mach.Run()
		if err != nil {
			t.Fatalf("fast=%v: %v", fast, err)
		}
		return out
	}
	slow := runWith(false)
	fast := runWith(true)
	if string(slow.Output) != string(fast.Output) {
		t.Fatalf("outputs diverged: %q vs %q", slow.Output, fast.Output)
	}
	if slow.Unwinds == 0 {
		t.Fatal("no unwinding exercised")
	}
	if fast.Cycles >= slow.Cycles {
		t.Errorf("compiled unwinder not cheaper: %d vs %d cycles", fast.Cycles, slow.Cycles)
	}
}

func TestPlacementIntegrityAudit(t *testing.T) {
	// The static integrity checker must accept the placement Rewrite
	// computes for every mode and configuration, and must reject a
	// placement with a missing trampoline.
	eachConfig(t, func(t *testing.T, a arch.Arch, pie bool) {
		img, _, err := richProgram(a, pie).Link()
		if err != nil {
			t.Fatal(err)
		}
		g, err := buildGraph(img)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeDir, ModeJT, ModeFuncPtr} {
			opts := Options{Mode: mode, Request: instrument.Request{Where: instrument.BlockEntry}}
			if err := AuditPlacement(img, g, opts); err != nil {
				t.Errorf("%s: %v", mode, err)
			}
		}
	})
}

// buildGraph is the graph the rewriter builds for a jt-mode rewrite.
func buildGraph(img *bin.Binary) (*cfg.Graph, error) {
	an, err := Analyze(img, AnalysisConfig{Mode: ModeJT})
	if err != nil {
		return nil, err
	}
	return an.Graph, nil
}

func TestCheckIntegrityDetectsMissingTrampoline(t *testing.T) {
	img, _, err := richProgram(arch.X64, false).Link()
	if err != nil {
		t.Fatal(err)
	}
	g, err := buildGraph(img)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := funcByName(g, "main")
	cfl := cflSet(img, f, ModeDir, Variant{})
	inst := map[uint64]bool{}
	for _, blk := range f.Blocks {
		inst[blk.Start] = true
	}
	// No trampolines at all: must be rejected.
	if err := CheckIntegrity(f, cfl, map[uint64]bool{}, inst); err == nil {
		t.Error("empty trampoline set accepted")
	}
	// Trampolines exactly at CFL blocks: accepted.
	tr := map[uint64]bool{}
	for _, a := range cfl {
		tr[a] = true
	}
	if err := CheckIntegrity(f, cfl, tr, inst); err != nil {
		t.Errorf("CFL placement rejected: %v", err)
	}
	// Drop one CFL trampoline: rejected again.
	for a := range tr {
		delete(tr, a)
		break
	}
	if err := CheckIntegrity(f, cfl, tr, inst); err == nil {
		t.Error("placement with a missing CFL trampoline accepted")
	}
}

// funcByName returns the named function of g.
func funcByName(g *cfg.Graph, name string) (*cfg.Func, bool) {
	for _, f := range g.Funcs {
		if f.Name == name {
			return f, true
		}
	}
	return nil, false
}
