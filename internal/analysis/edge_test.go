package analysis

import (
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/asm"
	"icfgpatch/internal/cfg"
)

// bigSwitchBinary builds a function large enough to force 2-byte A64
// table entries (functions over 1KB use rel16).
func bigSwitchBinary(t *testing.T, filler int) (*asm.Builder, *asm.FuncBuilder, []asm.Label, asm.Label) {
	t.Helper()
	b := asm.New(arch.A64, false)
	f := b.Func("main")
	f.SetFrame(16)
	f.Li(arch.R8, 1)
	cases := []asm.Label{f.NewLabel(), f.NewLabel(), f.NewLabel()}
	def := f.NewLabel()
	f.Switch(arch.R8, arch.R9, arch.R10, cases, def, asm.SwitchOpts{})
	return b, f, cases, def
}

func TestA64TableStyleDependsOnFunctionSize(t *testing.T) {
	build := func(filler int) asm.TableInfo {
		b, f, cases, def := bigSwitchBinary(t, filler)
		join := f.NewLabel()
		for _, c := range cases {
			f.Bind(c)
			f.BranchTo(join)
		}
		f.Bind(def)
		f.Bind(join)
		for i := 0; i < filler; i++ {
			f.OpI(arch.Add, arch.R3, arch.R3, 1)
		}
		f.Halt()
		b.SetEntry("main")
		_, dbg, err := b.Link()
		if err != nil {
			t.Fatal(err)
		}
		return dbg.Tables[0]
	}
	small := build(4)
	if small.EntrySize != 1 {
		t.Errorf("small function entry size %d, want 1 (tbb)", small.EntrySize)
	}
	big := build(400) // 400 × 4 bytes pushes the function over 1KB
	if big.EntrySize != 2 {
		t.Errorf("big function entry size %d, want 2 (tbh)", big.EntrySize)
	}
}

func TestA64CompressedTablesResolve(t *testing.T) {
	// Both tbb- and tbh-style tables must resolve with exact bounds and
	// correct targets.
	for _, filler := range []int{4, 400} {
		b, f, cases, def := bigSwitchBinary(t, filler)
		join := f.NewLabel()
		for _, c := range cases {
			f.Bind(c)
			f.BranchTo(join)
		}
		f.Bind(def)
		f.Bind(join)
		for i := 0; i < filler; i++ {
			f.OpI(arch.Add, arch.R3, arch.R3, 1)
		}
		f.Halt()
		b.SetEntry("main")
		img, dbg, err := b.Link()
		if err != nil {
			t.Fatal(err)
		}
		g, err := buildGraph(img, newJumpTables(img))
		if err != nil {
			t.Fatal(err)
		}
		fn, _ := funcByName(g, "main")
		if fn.Err != nil {
			t.Fatalf("filler=%d: %v", filler, fn.Err)
		}
		tbl := fn.IndirectJumps[0].Table
		truth := dbg.Tables[0]
		if tbl == nil || tbl.Kind != cfg.TarFuncRel4 {
			t.Fatalf("filler=%d: table %+v", filler, tbl)
		}
		if tbl.EntrySize != truth.EntrySize || tbl.Count != truth.N {
			t.Errorf("filler=%d: size/count %d/%d, want %d/%d",
				filler, tbl.EntrySize, tbl.Count, truth.EntrySize, truth.N)
		}
		for i, target := range tbl.Targets {
			if target != truth.Targets[i] {
				t.Errorf("filler=%d target[%d]: %#x vs %#x", filler, i, target, truth.Targets[i])
			}
		}
	}
}

func TestInterleavedRodataBoundsExtension(t *testing.T) {
	// Assumption 2 on A64: jump tables separated by constant data. A
	// spilled-bound table must stop at the interleaved blob (which the
	// code references PC-relatively), not swallow it.
	b := asm.New(arch.A64, false)
	f := b.Func("main")
	f.SetFrame(16)
	f.Li(arch.R8, 1)
	cases := []asm.Label{f.NewLabel(), f.NewLabel()}
	def := f.NewLabel()
	join := f.NewLabel()
	f.Switch(arch.R8, arch.R9, arch.R10, cases, def, asm.SwitchOpts{SpillIndex: true})
	// A string constant lands right after the table in .rodata, and the
	// code takes its address (creating the boundary hint).
	b.RodataBytes("greeting", []byte("hello, assumption 2!"))
	for _, c := range cases {
		f.Bind(c)
		f.BranchTo(join)
	}
	f.Bind(def)
	f.Bind(join)
	f.LoadGlobalAddr(arch.R5, "greeting")
	f.Halt()
	b.SetEntry("main")
	img, dbg, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	g, err := buildGraph(img, newJumpTables(img))
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := funcByName(g, "main")
	if fn.Err != nil {
		t.Fatal(fn.Err)
	}
	tbl := fn.IndirectJumps[0].Table
	if tbl.BoundExact {
		t.Fatal("bound unexpectedly exact (spill should have hidden it)")
	}
	truth := dbg.Tables[0]
	tableEnd := tbl.TableAddr + uint64(tbl.Count*tbl.EntrySize)
	blob, _ := img.SymbolByName("greeting")
	_ = blob
	if tbl.Count < truth.N {
		t.Errorf("under-approximated: %d < %d", tbl.Count, truth.N)
	}
	// The extension must not have consumed unbounded rodata.
	if tbl.Count > truth.N+64 {
		t.Errorf("extension ran away: %d entries (truth %d, table end %#x)", tbl.Count, truth.N, tableEnd)
	}
}

func TestResolverRejectsNonJumpInstruction(t *testing.T) {
	b := asm.New(arch.X64, false)
	f := b.Func("main")
	f.Li(arch.R3, 1)
	f.Halt()
	b.SetEntry("main")
	img, dbg, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	g, err := buildGraph(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := funcByName(g, "main")
	jt := newJumpTables(img)
	if _, err := jt.ResolveJump(img, fn, dbg.FuncStart["main"]); err == nil {
		t.Error("resolved a non-jump instruction")
	}
	if _, err := jt.ResolveJump(img, fn, 0xdeadbeef); err == nil {
		t.Error("resolved an address outside any block")
	}
}
