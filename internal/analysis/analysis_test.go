package analysis

import (
	"errors"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/asm"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/cfg"
)

// switchBinary builds a one-switch program.
func switchBinary(t *testing.T, a arch.Arch, pie bool, nCases int, opts asm.SwitchOpts) (*bin.Binary, *asm.DebugInfo) {
	t.Helper()
	b := asm.New(a, pie)
	f := b.Func("main")
	f.SetFrame(16)
	f.Li(arch.R8, 1)
	cases := make([]asm.Label, nCases)
	for i := range cases {
		cases[i] = f.NewLabel()
	}
	def := f.NewLabel()
	join := f.NewLabel()
	f.Switch(arch.R8, arch.R9, arch.R10, cases, def, opts)
	for i, c := range cases {
		f.Bind(c)
		f.OpI(arch.Add, arch.R3, arch.R3, int64(i+1))
		f.BranchTo(join)
	}
	f.Bind(def)
	f.Bind(join)
	f.Print(arch.R3)
	f.Halt()
	b.SetEntry("main")
	img, dbg, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return img, dbg
}

func analyze(t *testing.T, img *bin.Binary) *cfg.Graph {
	t.Helper()
	g, err := buildGraph(img, newJumpTables(img))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestJumpTableExactResolution(t *testing.T) {
	for _, a := range arch.All() {
		for _, pie := range []bool{false, true} {
			img, dbg := switchBinary(t, a, pie, 5, asm.SwitchOpts{})
			g := analyze(t, img)
			fn, _ := funcByName(g, "main")
			if fn.Err != nil {
				t.Fatalf("%s pie=%v: analysis failed: %v", a, pie, fn.Err)
			}
			if len(fn.IndirectJumps) != 1 || fn.IndirectJumps[0].Table == nil {
				t.Fatalf("%s pie=%v: jump unresolved", a, pie)
			}
			tbl := fn.IndirectJumps[0].Table
			truth := dbg.Tables[0]
			if tbl.TableAddr != truth.Addr {
				t.Errorf("%s pie=%v: table addr %#x, want %#x", a, pie, tbl.TableAddr, truth.Addr)
			}
			if tbl.EntrySize != truth.EntrySize {
				t.Errorf("%s pie=%v: entry size %d, want %d", a, pie, tbl.EntrySize, truth.EntrySize)
			}
			if !tbl.BoundExact {
				t.Errorf("%s pie=%v: bound not exact despite visible check", a, pie)
			}
			if tbl.Count != truth.N {
				t.Errorf("%s pie=%v: count %d, want %d", a, pie, tbl.Count, truth.N)
			}
			for i, target := range tbl.Targets {
				if target != truth.Targets[i] {
					t.Errorf("%s pie=%v: target[%d] = %#x, want %#x", a, pie, i, target, truth.Targets[i])
				}
			}
			if len(tbl.BaseInstrs) == 0 {
				t.Errorf("%s pie=%v: no base-forming instructions collected", a, pie)
			}
			if a == arch.PPC && !tbl.InText {
				t.Errorf("ppc table not recognised as embedded in code")
			}
			if a == arch.A64 && len(tbl.FuncStartInstrs) == 0 {
				t.Errorf("a64 compressed table without func-start instructions")
			}
		}
	}
}

func TestSpilledIndexFallsBackToBoundExtension(t *testing.T) {
	// Failure 2: the bound is unknown, so Assumption-2 extension kicks
	// in; the result may over-approximate but must never
	// under-approximate (all true targets present).
	for _, a := range arch.All() {
		img, dbg := switchBinary(t, a, false, 4, asm.SwitchOpts{SpillIndex: true})
		g := analyze(t, img)
		fn, _ := funcByName(g, "main")
		if fn.Err != nil {
			t.Fatalf("%s: analysis failed: %v", a, fn.Err)
		}
		tbl := fn.IndirectJumps[0].Table
		if tbl == nil {
			t.Fatalf("%s: jump unresolved", a)
		}
		if tbl.BoundExact {
			t.Errorf("%s: bound claimed exact despite the spill", a)
		}
		truth := dbg.Tables[0]
		if tbl.Count < truth.N {
			t.Errorf("%s: UNDER-approximation: %d entries, truth %d — catastrophic per Section 4.3",
				a, tbl.Count, truth.N)
		}
		for i := 0; i < truth.N; i++ {
			if tbl.Targets[i] != truth.Targets[i] {
				t.Errorf("%s: target[%d] = %#x, want %#x", a, i, tbl.Targets[i], truth.Targets[i])
			}
		}
	}
}

func TestLargeTableAtSectionEndNotTruncated(t *testing.T) {
	// Regression: a table bigger than MaxTableEntries whose bounds check
	// is invisible. The extension limit here comes from the section end
	// (or a boundary hint) — a hard bound — so the MaxTableEntries cap
	// must not apply. Capping silently dropped entries past 512, an
	// under-approximation: indices above the cap kept jumping into the
	// stale original code after rewriting.
	const nCases = MaxTableEntries + 88
	for _, a := range arch.All() {
		img, dbg := switchBinary(t, a, false, nCases, asm.SwitchOpts{SpillIndex: true})
		g := analyze(t, img)
		fn, _ := funcByName(g, "main")
		if fn.Err != nil {
			t.Fatalf("%s: analysis failed: %v", a, fn.Err)
		}
		tbl := fn.IndirectJumps[0].Table
		if tbl == nil {
			t.Fatalf("%s: jump unresolved", a)
		}
		if tbl.BoundExact {
			t.Fatalf("%s: bound claimed exact despite the spill", a)
		}
		truth := dbg.Tables[0]
		if truth.N != nCases {
			t.Fatalf("%s: ground truth has %d entries, want %d", a, truth.N, nCases)
		}
		if tbl.Count < truth.N {
			t.Errorf("%s: UNDER-approximation: %d entries, truth %d — catastrophic per Section 4.3",
				a, tbl.Count, truth.N)
		}
		for i := 0; i < truth.N && i < tbl.Count; i++ {
			if tbl.Targets[i] != truth.Targets[i] {
				t.Fatalf("%s: target[%d] = %#x, want %#x", a, i, tbl.Targets[i], truth.Targets[i])
			}
		}
	}
}

func TestOpaqueBaseIsGracefulFailure(t *testing.T) {
	// Failure 1: the table start cannot be found; the function fails
	// gracefully (Err set), never silently.
	for _, a := range arch.All() {
		img, _ := switchBinary(t, a, false, 4, asm.SwitchOpts{OpaqueBase: true})
		g := analyze(t, img)
		fn, _ := funcByName(g, "main")
		if fn.Err == nil {
			t.Errorf("%s: opaque-base switch did not fail the function", a)
		}
		if len(fn.IndirectJumps) != 1 || fn.IndirectJumps[0].Table != nil {
			t.Errorf("%s: jump should be unresolved", a)
		}
	}
}

func TestAdjacentTablesBoundEachOther(t *testing.T) {
	// Two switches whose bounds checks are hidden: each table must be
	// bounded by the other's start or by known data (Assumption 2), not
	// merged into one giant table.
	for _, a := range arch.All() {
		b := asm.New(a, false)
		f := b.Func("main")
		f.SetFrame(16)
		mk := func() {
			f.Li(arch.R8, 0)
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
		}
		mk()
		mk()
		f.Halt()
		b.SetEntry("main")
		img, dbg, err := b.Link()
		if err != nil {
			t.Fatal(err)
		}
		g := analyze(t, img)
		fn, _ := funcByName(g, "main")
		if fn.Err != nil {
			t.Fatalf("%s: %v", a, fn.Err)
		}
		if len(fn.IndirectJumps) != 2 {
			t.Fatalf("%s: %d jumps", a, len(fn.IndirectJumps))
		}
		for k, ij := range fn.IndirectJumps {
			if ij.Table == nil {
				t.Fatalf("%s: jump %d unresolved", a, k)
			}
			if ij.Table.Count > MaxTableEntries {
				t.Errorf("%s: table %d ran away: %d entries", a, k, ij.Table.Count)
			}
			// All truth targets present.
			var truth *asm.TableInfo
			for i := range dbg.Tables {
				if dbg.Tables[i].Addr == ij.Table.TableAddr {
					truth = &dbg.Tables[i]
				}
			}
			if truth == nil {
				t.Fatalf("%s: resolved table %#x matches no ground truth", a, ij.Table.TableAddr)
			}
			if ij.Table.Count < truth.N {
				t.Errorf("%s: table %d under-approximated: %d < %d", a, k, ij.Table.Count, truth.N)
			}
		}
	}
}

func TestIndirectTailCallStillInstrumentable(t *testing.T) {
	for _, a := range arch.All() {
		b := asm.New(a, false)
		fin := b.Func("fin")
		fin.Return()
		b.FuncPtrGlobal("fp", "fin", 0)
		f := b.Func("main")
		f.LoadGlobal(arch.R9, arch.R9, "fp", 8)
		f.TailJumpReg(arch.R9)
		b.SetEntry("main")
		img, _, err := b.Link()
		if err != nil {
			t.Fatal(err)
		}
		g := analyze(t, img)
		fn, _ := funcByName(g, "main")
		if fn.Err != nil {
			t.Errorf("%s: tail-call function failed: %v", a, fn.Err)
		}
		if !fn.IndirectJumps[0].TailCall {
			t.Errorf("%s: not classified as tail call", a)
		}
	}
}

// ptrProgram builds a binary with several kinds of function pointers.
func ptrProgram(a arch.Arch, pie bool, addend int64) *asm.Builder {
	b := asm.New(a, pie)
	callee := b.Func("callee")
	callee.Nop()
	callee.OpI(arch.Add, arch.R0, arch.R1, 1)
	callee.Return()
	b.FuncPtrGlobal("fp", "callee", addend)
	m := b.Func("main")
	m.SetFrame(16)
	// Code-materialised pointer.
	m.LoadGlobalAddr(arch.R9, "callee")
	m.I(arch.Instr{Kind: arch.CallInd, Rs1: arch.R9})
	m.CallPtr(arch.R9, "fp")
	m.Print(arch.R0)
	m.Halt()
	b.SetEntry("main")
	return b
}

func TestFuncPointersFindsSites(t *testing.T) {
	for _, a := range arch.All() {
		for _, pie := range []bool{false, true} {
			img, _, err := ptrProgram(a, pie, 0).Link()
			if err != nil {
				t.Fatal(err)
			}
			g := analyze(t, img)
			sites, err := Untrusted().FuncPointers(img, g)
			if err != nil {
				t.Fatalf("%s pie=%v: %v", a, pie, err)
			}
			kinds := map[PtrSiteKind]int{}
			for _, s := range sites {
				kinds[s.Kind]++
			}
			if pie && kinds[PtrReloc] == 0 {
				t.Errorf("%s pie: no relocation sites found", a)
			}
			if !pie && kinds[PtrDataCell] == 0 {
				t.Errorf("%s nopie: no data cell sites found", a)
			}
			if kinds[PtrCodeImm] == 0 && (!pie || a != arch.X64) {
				// PIE X64 forms addresses with lea, which is PC-relative
				// and needs no rewriting; all other configs materialise.
				if !(pie && a != arch.X64) {
					t.Errorf("%s pie=%v: no code-immediate sites found (%v)", a, pie, kinds)
				}
			}
		}
	}
}

func TestFuncPointersEntryPlusNopBoundary(t *testing.T) {
	// goexit+nopLen points at an instruction boundary: valid.
	for _, a := range arch.All() {
		nop := int64(1)
		if a.FixedWidth() {
			nop = 4
		}
		img, _, err := ptrProgram(a, false, nop).Link()
		if err != nil {
			t.Fatal(err)
		}
		g := analyze(t, img)
		sites, err := Untrusted().FuncPointers(img, g)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		found := false
		for _, s := range sites {
			if s.Kind == PtrDataCell && s.Value != 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: entry+nop pointer cell not identified", a)
		}
	}
}

func TestFuncPointersMidInstructionIsImprecise(t *testing.T) {
	for _, a := range arch.All() {
		img, _, err := ptrProgram(a, false, 2).Link() // entry+2: mid-instruction
		if err != nil {
			t.Fatal(err)
		}
		g := analyze(t, img)
		if _, err := Untrusted().FuncPointers(img, g); !errors.Is(err, ErrImprecise) {
			t.Errorf("%s: err = %v, want ErrImprecise", a, err)
		}
	}
}

func TestBoundaryScanFindsDataAccesses(t *testing.T) {
	img, dbg := switchBinary(t, arch.X64, false, 4, asm.SwitchOpts{})
	jt := newJumpTables(img)
	// The table base itself must be a boundary (materialised constant),
	// and a boundary hit is a hard bound.
	next, hard := jt.nextBoundary(dbg.Tables[0].Addr - 1)
	if next != dbg.Tables[0].Addr {
		t.Errorf("nextBoundary before table = %#x, want table start %#x", next, dbg.Tables[0].Addr)
	}
	if !hard {
		t.Errorf("boundary-derived limit not reported as hard")
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
