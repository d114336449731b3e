package cfg

import (
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/asm"
	"icfgpatch/internal/bin"
)

// strippedFixture builds a program, records ground truth, and strips the
// symbol table.
func strippedFixture(t *testing.T, a arch.Arch, pie bool) (*bin.Binary, *asm.DebugInfo) {
	t.Helper()
	b := asm.New(a, pie)
	leaf := b.Func("leaf")
	leaf.OpI(arch.Add, arch.R0, arch.R1, 1)
	leaf.Return()
	helper := b.Func("helper")
	helper.SetFrame(16)
	helper.CallF("leaf")
	helper.OpI(arch.Add, arch.R0, arch.R0, 2)
	helper.Return()
	// ptrOnly is never called directly; it is only reachable through a
	// function pointer cell — discoverable via relocations/data.
	ptrOnly := b.Func("ptronly")
	ptrOnly.OpI(arch.Add, arch.R0, arch.R1, 7)
	ptrOnly.Return()
	b.FuncPtrGlobal("fp", "ptronly", 0)
	m := b.Func("main")
	m.SetFrame(32)
	m.Li(arch.R1, 5)
	m.CallF("helper")
	m.StoreLocal(arch.R0, 8)
	m.Li(arch.R1, 2)
	m.CallPtr(arch.R9, "fp")
	m.LoadLocal(arch.R2, 8)
	m.Op3(arch.Add, arch.R0, arch.R0, arch.R2)
	m.Print(arch.R0)
	m.Halt()
	b.SetEntry("main")
	img, dbg, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	stripped := img.Clone()
	stripped.Symbols = nil // strip
	return stripped, dbg
}

func TestDiscoverFunctionsRecoversEntries(t *testing.T) {
	for _, a := range arch.All() {
		for _, pie := range []bool{false, true} {
			img, dbg := strippedFixture(t, a, pie)
			syms, err := DiscoverFunctions(img)
			if err != nil {
				t.Fatalf("%s pie=%v: %v", a, pie, err)
			}
			found := map[uint64]bin.Symbol{}
			for _, s := range syms {
				found[s.Addr] = s
			}
			for _, name := range []string{"main", "helper", "leaf", "ptronly"} {
				start := dbg.FuncStart[name]
				s, ok := found[start]
				if !ok {
					t.Errorf("%s pie=%v: %s entry %#x not discovered", a, pie, name, start)
					continue
				}
				// The extent must cover the true function body (padding
				// may be trimmed).
				if s.Addr+s.Size > dbg.FuncEnd[name] {
					t.Errorf("%s pie=%v: %s extent %#x overruns true end %#x",
						a, pie, name, s.Addr+s.Size, dbg.FuncEnd[name])
				}
			}
		}
	}
}

func TestBuildStrippedProducesUsableCFG(t *testing.T) {
	img, dbg := strippedFixture(t, arch.X64, false)
	g, err := BuildGraph(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Funcs) < 4 {
		t.Fatalf("only %d functions in stripped CFG", len(g.Funcs))
	}
	f, ok := g.FuncContaining(dbg.FuncStart["helper"])
	if !ok || f.Entry != dbg.FuncStart["helper"] {
		t.Error("helper not rediscovered as a function")
	}
	for _, fn := range g.Funcs {
		if fn.Err != nil {
			t.Errorf("stripped function %s failed analysis: %v", fn.Name, fn.Err)
		}
	}
	// The original binary must not have been mutated.
	if len(img.Symbols) != 0 {
		t.Error("BuildGraph added symbols to the input")
	}
}

func TestDiscoverRejectsTextlessBinary(t *testing.T) {
	b := bin.New(arch.X64)
	if _, err := DiscoverFunctions(b); err == nil {
		t.Error("discovery on empty binary succeeded")
	}
}
