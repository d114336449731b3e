package asm

import (
	"fmt"
	"strings"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/emu"
)

// run links the builder's program and executes it, failing the test on
// any error.
func run(t *testing.T, b *Builder) (emu.Result, *bin.Binary, *DebugInfo) {
	t.Helper()
	img, dbg, err := b.Link()
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	m, err := emu.Load(img, emu.Options{})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res, img, dbg
}

// eachConfig runs the test body for every architecture and PIE setting.
func eachConfig(t *testing.T, body func(t *testing.T, a arch.Arch, pie bool)) {
	for _, a := range arch.All() {
		for _, pie := range []bool{false, true} {
			name := a.String()
			if pie {
				name += "/pie"
			} else {
				name += "/nopie"
			}
			t.Run(name, func(t *testing.T) { body(t, a, pie) })
		}
	}
}

func TestArithmeticLoop(t *testing.T) {
	eachConfig(t, func(t *testing.T, a arch.Arch, pie bool) {
		b := New(a, pie)
		f := b.Func("main")
		f.Li(arch.R3, 0)  // sum
		f.Li(arch.R4, 10) // counter
		top := f.Here()
		f.Op3(arch.Add, arch.R3, arch.R3, arch.R4)
		f.OpI(arch.Sub, arch.R4, arch.R4, 1)
		f.BranchCondTo(arch.NE, arch.R4, top)
		f.Print(arch.R3)
		f.Li(arch.R0, 0)
		f.Halt()
		res, _, _ := run(t, b)
		if string(res.Output) != "55\n" {
			t.Errorf("output = %q, want 55", res.Output)
		}
		if res.Cycles == 0 || res.Instrs == 0 {
			t.Error("no cycles/instructions counted")
		}
	})
}

func TestFunctionCallsAndRecursion(t *testing.T) {
	eachConfig(t, func(t *testing.T, a arch.Arch, pie bool) {
		b := New(a, pie)
		// fib(n): recursive.
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
		m.SetFrame(16)
		m.Li(arch.R1, 15)
		m.CallF("fib")
		m.Print(arch.R0)
		m.Li(arch.R0, 0)
		m.Halt()
		b.SetEntry("main")
		res, _, _ := run(t, b)
		if string(res.Output) != "610\n" {
			t.Errorf("fib(15) output = %q, want 610", res.Output)
		}
	})
}

// switchProgram builds a program that dispatches i%5 through a jump
// table for i in [0,40) and prints an accumulated value.
func switchProgram(a arch.Arch, pie bool, opts SwitchOpts) *Builder {
	b := New(a, pie)
	f := b.Func("main")
	f.SetFrame(32)
	f.Li(arch.R3, 0) // acc
	f.Li(arch.R4, 0) // i
	top := f.Here()
	// idx = i % 5
	f.Li(arch.R7, 5)
	f.Op3(arch.Div, arch.R8, arch.R4, arch.R7)
	f.Op3(arch.Mul, arch.R8, arch.R8, arch.R7)
	f.Op3(arch.Sub, arch.R8, arch.R4, arch.R8)
	cases := make([]Label, 5)
	for i := range cases {
		cases[i] = f.NewLabel()
	}
	def := f.NewLabel()
	join := f.NewLabel()
	f.Switch(arch.R8, arch.R9, arch.R10, cases, def, opts)
	for i, c := range cases {
		f.Bind(c)
		f.OpI(arch.Add, arch.R3, arch.R3, int64(10+i*7))
		f.BranchTo(join)
	}
	f.Bind(def)
	f.OpI(arch.Add, arch.R3, arch.R3, 1000)
	f.Bind(join)
	f.OpI(arch.Add, arch.R4, arch.R4, 1)
	f.OpI(arch.Sub, arch.R9, arch.R4, 40)
	f.BranchCondTo(arch.LT, arch.R9, top)
	f.Print(arch.R3)
	f.Halt()
	return b
}

func TestSwitchJumpTables(t *testing.T) {
	// 8 iterations of each case 0..4: acc = 8*(10+17+24+31+38) = 960.
	eachConfig(t, func(t *testing.T, a arch.Arch, pie bool) {
		for _, opts := range []SwitchOpts{{}, {SpillIndex: true}, {OpaqueBase: true}} {
			res, img, dbg := run(t, switchProgram(a, pie, opts))
			if string(res.Output) != "960\n" {
				t.Errorf("opts %+v: output = %q, want 960", opts, res.Output)
			}
			if len(dbg.Tables) != 1 {
				t.Fatalf("opts %+v: %d tables in debug info", opts, len(dbg.Tables))
			}
			tbl := dbg.Tables[0]
			if tbl.N != 5 {
				t.Errorf("table N = %d", tbl.N)
			}
			if a == arch.PPC && !tbl.InText {
				t.Error("ppc jump table must be embedded in .text")
			}
			if a == arch.PPC {
				txt := img.Text()
				if tbl.Addr < txt.Addr || tbl.Addr >= txt.End() {
					t.Error("ppc table address outside .text")
				}
			}
			if a == arch.A64 && tbl.EntrySize > 2 {
				t.Errorf("a64 table entry size = %d, want 1 or 2", tbl.EntrySize)
			}
			if a == arch.X64 && !pie && tbl.Style != TableAbs64 {
				t.Errorf("x64 non-pie table style = %s, want abs64", tbl.Style)
			}
			if a == arch.X64 && pie && tbl.Style != TableRel32 {
				t.Errorf("x64 pie table style = %s, want rel32", tbl.Style)
			}
		}
	})
}

func TestIndirectCallsThroughGlobals(t *testing.T) {
	eachConfig(t, func(t *testing.T, a arch.Arch, pie bool) {
		b := New(a, pie)
		cb := b.Func("callee")
		cb.OpI(arch.Add, arch.R0, arch.R1, 5)
		cb.Return()
		b.FuncPtrGlobal("fp", "callee", 0)

		m := b.Func("main")
		m.SetFrame(32)
		m.Li(arch.R1, 37)
		m.CallPtr(arch.R9, "fp")
		m.Print(arch.R0)
		// Indirect call through a stack slot.
		m.Li(arch.R1, 100)
		m.LoadGlobal(arch.R9, arch.R9, "fp", 8)
		m.CallStackSlot(arch.R9, 8)
		m.Print(arch.R0)
		m.Halt()
		b.SetEntry("main")
		res, img, _ := run(t, b)
		if string(res.Output) != "42\n105\n" {
			t.Errorf("output = %q", res.Output)
		}
		// PIE must carry a relocation for the pointer cell.
		sym, _ := img.SymbolByName("fp")
		if pie && !hasReloc(img, sym.Addr) {
			t.Error("pie binary missing RelocRelative for function pointer cell")
		}
		if !pie && hasReloc(img, sym.Addr) {
			t.Error("non-pie binary has an unexpected runtime relocation")
		}
	})
}

func TestFuncPtrPlusOneGoIdiom(t *testing.T) {
	// The Listing 1 pattern: a pointer cell holds callee+nopLen, so the
	// call skips the leading nop.
	eachConfig(t, func(t *testing.T, a arch.Arch, pie bool) {
		nopLen := int64(1)
		if a.FixedWidth() {
			nopLen = 4
		}
		b := New(a, pie)
		cb := b.Func("goexit")
		cb.Nop() // skipped by the +1 pointer
		cb.OpI(arch.Add, arch.R0, arch.R1, 1)
		cb.Return()
		b.FuncPtrGlobal("fp1", "goexit", nopLen)
		m := b.Func("main")
		m.SetFrame(16)
		m.Li(arch.R1, 41)
		m.CallPtr(arch.R9, "fp1")
		m.Print(arch.R0)
		m.Halt()
		b.SetEntry("main")
		res, _, _ := run(t, b)
		if string(res.Output) != "42\n" {
			t.Errorf("output = %q", res.Output)
		}
	})
}

func TestIndirectTailCall(t *testing.T) {
	eachConfig(t, func(t *testing.T, a arch.Arch, pie bool) {
		b := New(a, pie)
		fin := b.Func("finish")
		fin.OpI(arch.Add, arch.R0, arch.R1, 2)
		fin.Return()
		b.FuncPtrGlobal("fp", "finish", 0)
		// hop loads the target and tail-jumps: control returns straight
		// to hop's caller.
		hop := b.Func("hop")
		hop.OpI(arch.Add, arch.R1, arch.R1, 10)
		hop.LoadGlobal(arch.R9, arch.R9, "fp", 8)
		hop.TailJumpReg(arch.R9)

		m := b.Func("main")
		m.SetFrame(16)
		m.Li(arch.R1, 30)
		m.CallF("hop")
		m.Print(arch.R0)
		m.Halt()
		b.SetEntry("main")
		res, _, _ := run(t, b)
		if string(res.Output) != "42\n" {
			t.Errorf("output = %q", res.Output)
		}
	})
}

func TestExceptions(t *testing.T) {
	eachConfig(t, func(t *testing.T, a arch.Arch, pie bool) {
		b := New(a, pie)
		b.SetMeta("lang", "c++")
		b.SetMeta("exceptions", "1")
		// thrower throws unconditionally, two frames below the catch.
		th := b.Func("thrower")
		th.Throw()
		th.Return()
		mid := b.Func("mid")
		mid.SetFrame(24)
		mid.CallF("thrower")
		mid.OpI(arch.Add, arch.R3, arch.R3, 999) // skipped by the throw
		mid.Return()

		m := b.Func("main")
		m.SetFrame(32)
		catch := m.NewLabel()
		done := m.NewLabel()
		m.Li(arch.R3, 1)
		m.BeginTry()
		m.CallF("mid")
		m.EndTry(catch)
		m.Li(arch.R3, 2) // skipped: exception lands at catch
		m.BranchTo(done)
		m.Bind(catch)
		m.OpI(arch.Add, arch.R3, arch.R3, 40)
		m.Bind(done)
		m.Print(arch.R3)
		m.Halt()
		b.SetEntry("main")
		res, img, _ := run(t, b)
		if string(res.Output) != "41\n" {
			t.Errorf("output = %q, want 41 (catch executed, post-call skipped)", res.Output)
		}
		if res.Unwinds == 0 {
			t.Error("no frames were unwound")
		}
		if img.Section(bin.SecEhFrame) == nil {
			t.Error("no .eh_frame emitted")
		}
	})
}

func TestUncaughtExceptionFaults(t *testing.T) {
	b := New(arch.X64, false)
	f := b.Func("main")
	f.Throw()
	f.Halt()
	img, _, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	m, err := emu.Load(img, emu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); !emu.IsFault(err, emu.FaultUncaught) {
		t.Errorf("err = %v, want uncaught exception fault", err)
	}
}

func TestGoTraceback(t *testing.T) {
	eachConfig(t, func(t *testing.T, a arch.Arch, pie bool) {
		b := New(a, pie)
		b.SetMeta("lang", "go")
		b.SetMeta("go-runtime", "1")
		leafF := b.Func("leaf")
		leafF.SetFrame(16)
		leafF.I(arch.Instr{Kind: arch.Syscall, Imm: emu.SysTraceback})
		leafF.Return()
		midF := b.Func("mid")
		midF.SetFrame(24)
		midF.CallF("leaf")
		midF.Return()
		m := b.Func("main")
		m.SetFrame(32)
		m.CallF("mid")
		m.Print(arch.R0)
		m.Halt()
		b.SetEntry("main")
		res, img, _ := run(t, b)
		if res.Walks != 1 {
			t.Errorf("walks = %d, want 1", res.Walks)
		}
		out := string(res.Output)
		if !strings.HasPrefix(out, "tb:") {
			t.Errorf("output = %q, want traceback checksum", out)
		}
		if img.Section(bin.SecGoPCLN) == nil {
			t.Error("go binary missing .gopclntab")
		}
	})
}

func TestLeafFrameLayout(t *testing.T) {
	// Leaf functions on fixed-width ISAs must not save LR, and their FDE
	// must say RAInLR.
	b := New(arch.A64, false)
	leaf := b.Func("leaf")
	leaf.OpI(arch.Add, arch.R0, arch.R1, 1)
	leaf.Return()
	m := b.Func("main")
	m.SetFrame(16)
	m.CallF("leaf")
	m.Print(arch.R0)
	m.Halt()
	b.SetEntry("main")
	img, dbg, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	txt := img.Text()
	start := dbg.FuncStart["leaf"]
	first := arch.DecodeAll(arch.A64, txt.Data[start-txt.Addr:start-txt.Addr+4], start)[0]
	if first.Kind == arch.Store {
		t.Error("leaf function saves LR")
	}
}

func TestPaddingBetweenFunctions(t *testing.T) {
	eachConfig(t, func(t *testing.T, a arch.Arch, pie bool) {
		b := New(a, pie)
		f1 := b.Func("main")
		f1.Li(arch.R0, 0)
		f1.Halt()
		f2 := b.Func("f2")
		f2.Return()
		img, dbg, err := b.Link()
		if err != nil {
			t.Fatal(err)
		}
		if dbg.FuncStart["f2"]%16 != 0 {
			t.Errorf("f2 start %#x not 16-aligned", dbg.FuncStart["f2"])
		}
		// Padding between functions must decode as nops.
		txt := img.Text()
		for _, pr := range dbg.PadRanges {
			for _, ins := range arch.DecodeAll(a, txt.Data[pr[0]-txt.Addr:pr[1]-txt.Addr], pr[0]) {
				if ins.Kind != arch.Nop {
					t.Errorf("padding at %#x decodes to %s", ins.Addr, ins)
				}
			}
		}
	})
}

func TestDynamicSectionsPresent(t *testing.T) {
	b := New(arch.X64, true)
	f := b.Func("main")
	f.Halt()
	b.Export("main")
	b.FuncPtrGlobal("p", "main", 0)
	img, _, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{bin.SecDynSym, bin.SecDynStr, bin.SecRelaDyn, bin.SecEhFrame, bin.SecNote} {
		if img.Section(name) == nil {
			t.Errorf("missing section %s", name)
		}
	}
	if len(img.DynSymbols) == 0 {
		t.Error("no dynamic symbols")
	}
	if img.Section(bin.SecRelaDyn).Size() == 0 {
		t.Error("pie with pointer cell has empty .rela.dyn")
	}
}

func TestLinkRelocsOnlyWhenRequested(t *testing.T) {
	mk := func(keep bool) *bin.Binary {
		b := New(arch.X64, false)
		f := b.Func("main")
		f.Halt()
		b.FuncPtrGlobal("p", "main", 0)
		if keep {
			b.KeepLinkRelocs()
		}
		img, _, err := b.Link()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	if n := len(mk(false).LinkRelocs); n != 0 {
		t.Errorf("default build has %d link relocs, want 0 (linkers strip them)", n)
	}
	if n := len(mk(true).LinkRelocs); n == 0 {
		t.Error("-Wl,-q equivalent build lost its link relocations")
	}
}

func TestLinkErrors(t *testing.T) {
	b := New(arch.X64, false)
	if _, _, err := b.Link(); err == nil {
		t.Error("empty program linked")
	}
	b2 := New(arch.X64, false)
	f := b2.Func("main")
	f.CallF("missing")
	f.Halt()
	if _, _, err := b2.Link(); err == nil {
		t.Error("undefined symbol linked")
	}
	b3 := New(arch.X64, false)
	f3 := b3.Func("f")
	f3.Halt()
	b3.SetEntry("nope")
	if _, _, err := b3.Link(); err == nil {
		t.Error("missing entry linked")
	}
}

func TestSharedLibraryLink(t *testing.T) {
	b := New(arch.X64, true)
	b.SetSharedLib()
	f := b.Func("api")
	f.OpI(arch.Add, arch.R0, arch.R1, 1)
	f.Return()
	b.Export("api")
	img, _, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	if !img.SharedLib {
		t.Error("not marked shared")
	}
}

func TestDeterministicOutput(t *testing.T) {
	build := func() []byte {
		img, _, err := switchProgram(arch.A64, true, SwitchOpts{}).Link()
		if err != nil {
			t.Fatal(err)
		}
		return img.Marshal()
	}
	if string(build()) != string(build()) {
		t.Error("linking is not deterministic")
	}
}

func TestNestedTryCatch(t *testing.T) {
	// The innermost enclosing try region must win; a rethrow from the
	// inner catch propagates to the outer one.
	eachConfig(t, func(t *testing.T, a arch.Arch, pie bool) {
		b := New(a, pie)
		b.SetMeta("exceptions", "1")
		th := b.Func("thrower")
		th.Throw()
		th.Return()

		m := b.Func("main")
		m.SetFrame(48)
		outerCatch := m.NewLabel()
		innerCatch := m.NewLabel()
		done := m.NewLabel()
		m.Li(arch.R3, 0)
		m.BeginTry()
		m.BeginTry()
		m.CallF("thrower")
		m.EndTry(innerCatch)
		m.OpI(arch.Add, arch.R3, arch.R3, 111) // skipped
		m.Bind(innerCatch)
		m.OpI(arch.Add, arch.R3, arch.R3, 1) // inner catch runs
		m.Throw()                            // rethrow to the outer region
		m.EndTry(outerCatch)
		m.BranchTo(done)
		m.Bind(outerCatch)
		m.OpI(arch.Add, arch.R3, arch.R3, 40) // outer catch runs
		m.Bind(done)
		m.Print(arch.R3)
		m.Halt()
		b.SetEntry("main")
		res, _, _ := run(t, b)
		if string(res.Output) != "41\n" {
			t.Errorf("output = %q, want 41 (inner + outer catch)", res.Output)
		}
	})
}

func TestDeepUnwindThroughManyFrames(t *testing.T) {
	// A throw ten frames deep must unwind through every intermediate
	// frame to the only try region at the top.
	eachConfig(t, func(t *testing.T, a arch.Arch, pie bool) {
		b := New(a, pie)
		b.SetMeta("exceptions", "1")
		const depth = 10
		for i := depth - 1; i >= 0; i-- {
			f := b.Func(fmt.Sprintf("lvl%d", i))
			f.SetFrame(int64(16 + 8*(i%4)))
			if i == depth-1 {
				f.Throw()
			} else {
				f.CallF(fmt.Sprintf("lvl%d", i+1))
			}
			f.Return()
		}
		m := b.Func("main")
		m.SetFrame(32)
		catch := m.NewLabel()
		m.Li(arch.R3, 1)
		m.BeginTry()
		m.CallF("lvl0")
		m.EndTry(catch)
		m.Li(arch.R3, 999) // skipped
		m.Bind(catch)
		m.Print(arch.R3)
		m.Halt()
		b.SetEntry("main")
		res, _, _ := run(t, b)
		if string(res.Output) != "1\n" {
			t.Errorf("output = %q, want 1", res.Output)
		}
		if res.Unwinds < depth {
			t.Errorf("unwound %d frames, want >= %d", res.Unwinds, depth)
		}
	})
}

func TestGlobalsAndRodata(t *testing.T) {
	b := New(arch.PPC, false)
	b.GlobalInit("inited", []byte{1, 2, 3, 4, 5, 6, 7, 8})
	b.Global("zeroed", 16)
	b.RodataBytes("blob", []byte("constant"))
	f := b.Func("main")
	f.LoadGlobal(arch.R3, arch.R9, "inited", 8)
	f.Print(arch.R3)
	f.Halt()
	b.SetEntry("main")
	res, img, _ := run(t, b)
	// little-endian 0x0807060504030201
	if string(res.Output) != "578437695752307201\n" {
		t.Errorf("output = %q", res.Output)
	}
	for _, name := range []string{"inited", "zeroed", "blob"} {
		if _, ok := img.SymbolByName(name); !ok {
			t.Errorf("symbol %s missing", name)
		}
	}
	blob, _ := img.SymbolByName("blob")
	data, err := img.ReadAt(blob.Addr, blob.Size)
	if err != nil || string(data) != "constant" {
		t.Errorf("rodata contents = %q, %v", data, err)
	}
}

func TestLiLargeConstantsFixedWidth(t *testing.T) {
	// 64-bit constants need up to four movz/movk chunks on the
	// fixed-width ISAs.
	for _, a := range []arch.Arch{arch.PPC, arch.A64} {
		for _, v := range []int64{0, 1, 0xFFFF, 0x10000, 0x123456789ABC, -1} {
			b := New(a, false)
			f := b.Func("main")
			f.Li(arch.R1, v)
			f.I(arch.Instr{Kind: arch.Syscall, Imm: emu.SysPrint})
			f.Halt()
			b.SetEntry("main")
			res, _, _ := run(t, b)
			want := fmt.Sprintf("%d\n", uint64(v))
			if string(res.Output) != want {
				t.Errorf("%s Li(%#x): output = %q, want %q", a, v, res.Output, want)
			}
		}
	}
}

func TestBuilderPanicsOnMisuse(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("duplicate function", func() {
		b := New(arch.X64, false)
		b.Func("f")
		b.Func("f")
	})
	expectPanic("duplicate global", func() {
		b := New(arch.X64, false)
		b.Global("g", 8)
		b.Global("g", 8)
	})
	expectPanic("double bind", func() {
		b := New(arch.X64, false)
		f := b.Func("f")
		l := f.NewLabel()
		f.Bind(l)
		f.Bind(l)
	})
	expectPanic("bad frame", func() {
		b := New(arch.X64, false)
		f := b.Func("f")
		f.SetFrame(7)
	})
	expectPanic("endtry without begin", func() {
		b := New(arch.X64, false)
		f := b.Func("f")
		f.EndTry(f.NewLabel())
	})
	expectPanic("empty switch", func() {
		b := New(arch.X64, false)
		f := b.Func("f")
		f.Switch(arch.R1, arch.R2, arch.R3, nil, f.NewLabel(), SwitchOpts{})
	})
}

// hasReloc reports whether a runtime relocation targets the slot at off.
func hasReloc(b *bin.Binary, off uint64) bool {
	for _, r := range b.Relocs {
		if r.Off == off {
			return true
		}
	}
	return false
}
