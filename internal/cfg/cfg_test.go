package cfg

import (
	"fmt"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/asm"
	"icfgpatch/internal/bin"
)

// link builds a binary from the builder.
func link(t *testing.T, b *asm.Builder) (*bin.Binary, *asm.DebugInfo) {
	t.Helper()
	img, dbg, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return img, dbg
}

// simpleProgram: a diamond CFG with a loop and a call.
func simpleProgram(a arch.Arch) *asm.Builder {
	b := asm.New(a, false)
	callee := b.Func("callee")
	callee.OpI(arch.Add, arch.R0, arch.R1, 1)
	callee.Return()
	f := b.Func("main")
	f.SetFrame(16)
	els := f.NewLabel()
	join := f.NewLabel()
	f.Li(arch.R3, 5)
	f.BranchCondTo(arch.EQ, arch.R3, els)
	f.OpI(arch.Add, arch.R3, arch.R3, 1)
	f.BranchTo(join)
	f.Bind(els)
	f.OpI(arch.Sub, arch.R3, arch.R3, 1)
	f.Bind(join)
	f.Mov(arch.R1, arch.R3)
	f.CallF("callee")
	f.Print(arch.R0)
	f.Halt()
	b.SetEntry("main")
	return b
}

func TestBuildBasicStructure(t *testing.T) {
	for _, a := range arch.All() {
		img, dbg := link(t, simpleProgram(a))
		g, err := BuildGraph(img, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Funcs) != 2 {
			t.Fatalf("%s: %d funcs", a, len(g.Funcs))
		}
		f, ok := funcByName(g, "main")
		if !ok {
			t.Fatal("main not found")
		}
		if f.Entry != dbg.FuncStart["main"] || f.End != dbg.FuncEnd["main"] {
			t.Errorf("%s: bounds [%#x,%#x), want [%#x,%#x)", a, f.Entry, f.End, dbg.FuncStart["main"], dbg.FuncEnd["main"])
		}
		// Diamond + join + call fallthrough: at least 5 blocks.
		if len(f.Blocks) < 5 {
			t.Errorf("%s: only %d blocks", a, len(f.Blocks))
		}
		if f.Err != nil {
			t.Errorf("%s: unexpected analysis error: %v", a, f.Err)
		}
		// Every block's bytes must be covered and contiguous within the
		// block, and blocks must not overlap.
		for i, blk := range f.Blocks {
			if len(blk.Instrs) == 0 || blk.Start >= blk.End {
				t.Fatalf("%s: degenerate block %+v", a, blk)
			}
			pos := blk.Start
			for _, ins := range blk.Instrs {
				if ins.Addr != pos {
					t.Fatalf("%s: hole inside block at %#x", a, pos)
				}
				pos += uint64(ins.EncLen)
			}
			if pos != blk.End {
				t.Fatalf("%s: block end mismatch", a)
			}
			if i > 0 && blk.Start < f.Blocks[i-1].End {
				t.Fatalf("%s: overlapping blocks", a)
			}
		}
	}
}

func TestEdgesAndPreds(t *testing.T) {
	img, _ := link(t, simpleProgram(arch.X64))
	g, err := BuildGraph(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := funcByName(g, "main")
	kinds := map[EdgeKind]int{}
	for _, blk := range f.Blocks {
		for _, e := range blk.Succs {
			kinds[e.Kind]++
			to, ok := f.BlockAt(e.To)
			if !ok {
				t.Fatalf("edge to missing block %#x", e.To)
			}
			found := false
			for _, p := range to.Preds {
				if p == blk.Start {
					found = true
				}
			}
			if !found {
				t.Errorf("pred list of %#x misses %#x", to.Start, blk.Start)
			}
		}
	}
	if kinds[EdgeCond] == 0 || kinds[EdgeJump] == 0 || kinds[EdgeFall] == 0 || kinds[EdgeCallFall] == 0 {
		t.Errorf("edge kinds = %v, want all four intra kinds", kinds)
	}
}

func TestCallDoesNotEndTraversal(t *testing.T) {
	img, _ := link(t, simpleProgram(arch.A64))
	g, _ := BuildGraph(img, nil)
	f, _ := funcByName(g, "main")
	// The block after the call must exist.
	var callBlock *Block
	for _, blk := range f.Blocks {
		if blk.Last().Kind == arch.Call {
			callBlock = blk
		}
	}
	if callBlock == nil {
		t.Fatal("no call block")
	}
	if len(callBlock.Succs) != 1 || callBlock.Succs[0].Kind != EdgeCallFall {
		t.Fatalf("call block succs = %+v", callBlock.Succs)
	}
}

func TestUnresolvedIndirectJumpWithNopGapsIsTailCall(t *testing.T) {
	// A function whose only indirect jump is a genuine tail call: no
	// gaps, so the Section 5.1 heuristic classifies it as a tail call
	// and the function stays instrumentable even without a resolver.
	for _, a := range arch.All() {
		b := asm.New(a, false)
		fin := b.Func("fin")
		fin.Return()
		b.FuncPtrGlobal("fp", "fin", 0)
		f := b.Func("main")
		f.LoadGlobal(arch.R9, arch.R9, "fp", 8)
		f.TailJumpReg(arch.R9)
		b.SetEntry("main")
		img, _ := link(t, b)
		g, err := BuildGraph(img, nil)
		if err != nil {
			t.Fatal(err)
		}
		fn, _ := funcByName(g, "main")
		if fn.Err != nil {
			t.Errorf("%s: tail-call function marked failed: %v", a, fn.Err)
		}
		if len(fn.IndirectJumps) != 1 || !fn.IndirectJumps[0].TailCall {
			t.Errorf("%s: indirect jump not classified as tail call: %+v", a, fn.IndirectJumps)
		}
	}
}

func TestUnresolvedJumpWithRealCodeGapsFailsFunction(t *testing.T) {
	// A switch with no resolver leaves real case blocks unexplored:
	// gaps contain real code, so the function must fail gracefully.
	for _, a := range arch.All() {
		b := asm.New(a, false)
		f := b.Func("main")
		f.SetFrame(16)
		f.Li(arch.R8, 2)
		cases := []asm.Label{f.NewLabel(), f.NewLabel(), f.NewLabel()}
		def := f.NewLabel()
		join := f.NewLabel()
		f.Switch(arch.R8, arch.R9, arch.R10, cases, def, asm.SwitchOpts{})
		for i, c := range cases {
			f.Bind(c)
			f.OpI(arch.Add, arch.R3, arch.R3, int64(i))
			f.BranchTo(join)
		}
		f.Bind(def)
		f.Bind(join)
		f.Print(arch.R3)
		f.Halt()
		b.SetEntry("main")
		img, _ := link(t, b)
		g, err := BuildGraph(img, nil)
		if err != nil {
			t.Fatal(err)
		}
		fn, _ := funcByName(g, "main")
		if fn.Err == nil {
			t.Errorf("%s: unresolved switch did not fail the function (gaps nop-only=%v, gaps=%v)",
				a, fn.GapsNopOnly, fn.Gaps)
		}
	}
}

// fakeResolver resolves every jump to fixed targets.
type fakeResolver struct {
	targets map[uint64][]uint64
	calls   int
}

func (r *fakeResolver) ResolveJump(b *bin.Binary, f *Func, jumpAddr uint64) (*ResolvedTable, error) {
	r.calls++
	ts, ok := r.targets[jumpAddr]
	if !ok {
		return nil, fmt.Errorf("no")
	}
	return &ResolvedTable{JumpAddr: jumpAddr, Targets: ts, Count: len(ts), EntrySize: 8, Kind: TarAbs}, nil
}

func TestResolverTargetsBecomeEdgesAndBlocks(t *testing.T) {
	b := asm.New(arch.X64, false)
	f := b.Func("main")
	f.SetFrame(16)
	f.Li(arch.R8, 0)
	cases := []asm.Label{f.NewLabel(), f.NewLabel()}
	def := f.NewLabel()
	join := f.NewLabel()
	f.Switch(arch.R8, arch.R9, arch.R10, cases, def, asm.SwitchOpts{})
	f.Bind(cases[0])
	f.OpI(arch.Add, arch.R3, arch.R3, 1)
	f.BranchTo(join)
	f.Bind(cases[1])
	f.OpI(arch.Add, arch.R3, arch.R3, 2)
	f.Bind(def)
	f.Bind(join)
	f.Print(arch.R3)
	f.Halt()
	b.SetEntry("main")
	img, dbg := link(t, b)

	truth := dbg.Tables[0]
	res := &fakeResolver{targets: map[uint64][]uint64{truth.DispatchAddr: truth.Targets}}
	g, err := BuildGraph(img, res)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := funcByName(g, "main")
	if fn.Err != nil {
		t.Fatalf("resolved function failed: %v", fn.Err)
	}
	if len(fn.IndirectJumps) != 1 || fn.IndirectJumps[0].Table == nil {
		t.Fatal("jump not resolved")
	}
	for _, target := range truth.Targets {
		if _, ok := fn.BlockAt(target); !ok {
			t.Errorf("case target %#x has no block", target)
		}
	}
	jb, _ := fn.BlockContaining(truth.DispatchAddr)
	if len(jb.Succs) != len(truth.Targets) {
		t.Errorf("dispatch block has %d edges, want %d", len(jb.Succs), len(truth.Targets))
	}
}

func TestCatchPadsAreEntryPoints(t *testing.T) {
	b := asm.New(arch.X64, false)
	b.SetMeta("exceptions", "1")
	f := b.Func("main")
	f.SetFrame(16)
	catch := f.NewLabel()
	done := f.NewLabel()
	f.BeginTry()
	f.Throw()
	f.EndTry(catch)
	f.BranchTo(done)
	f.Bind(catch)
	f.OpI(arch.Add, arch.R3, arch.R3, 1)
	f.Bind(done)
	f.Halt()
	b.SetEntry("main")
	img, _ := link(t, b)
	g, _ := BuildGraph(img, nil)
	fn, _ := funcByName(g, "main")
	if len(fn.CatchPads) != 1 {
		t.Fatalf("catch pads = %v", fn.CatchPads)
	}
	if _, ok := fn.BlockAt(fn.CatchPads[0]); !ok {
		t.Error("catch pad did not become a block leader")
	}
}

func TestGraphQueries(t *testing.T) {
	img, dbg := link(t, simpleProgram(arch.PPC))
	g, _ := BuildGraph(img, nil)
	if f, ok := g.FuncContaining(dbg.FuncStart["main"] + 4); !ok || f.Name != "main" {
		t.Error("FuncContaining failed")
	}
	if f, ok := g.FuncContaining(dbg.FuncStart["callee"] + 4); !ok || f.Entry != dbg.FuncStart["callee"] {
		t.Error("FuncContaining missed the callee's entry")
	}
	if _, ok := g.FuncContaining(0x10); ok {
		t.Error("FuncContaining matched nothing-land")
	}
}

func TestNopPaddingNotInAnyBlock(t *testing.T) {
	// Inter-function padding must not be attributed to either function.
	img, dbg := link(t, simpleProgram(arch.X64))
	g, _ := BuildGraph(img, nil)
	for _, f := range g.Funcs {
		for _, blk := range f.Blocks {
			if blk.End > dbg.FuncEnd[f.Name] {
				t.Errorf("block of %s extends past the function end", f.Name)
			}
		}
	}
}

func TestInterFunctionPaddingIsNotAGap(t *testing.T) {
	// Alignment padding sits between functions, outside every function
	// range: functions must report no gaps for it.
	img, _ := link(t, simpleProgram(arch.A64))
	g, _ := BuildGraph(img, nil)
	for _, f := range g.Funcs {
		if len(f.Gaps) != 0 {
			t.Errorf("%s has gaps %v", f.Name, f.Gaps)
		}
		if !f.GapsNopOnly {
			t.Errorf("%s: GapsNopOnly false with no gaps", f.Name)
		}
	}
}

func TestPPCInTextTableIsDataRangeNotGap(t *testing.T) {
	b := asm.New(arch.PPC, false)
	f := b.Func("main")
	f.SetFrame(16)
	f.Li(arch.R8, 1)
	cases := []asm.Label{f.NewLabel(), f.NewLabel()}
	def := f.NewLabel()
	join := f.NewLabel()
	f.Switch(arch.R8, arch.R9, arch.R10, cases, def, asm.SwitchOpts{})
	for _, c := range cases {
		f.Bind(c)
		f.BranchTo(join)
	}
	f.Bind(def)
	f.Bind(join)
	f.Halt()
	b.SetEntry("main")
	img, dbg := link(t, b)
	truth := dbg.Tables[0]
	res := &fakeResolver{targets: map[uint64][]uint64{truth.DispatchAddr: truth.Targets}}
	// Resolve with in-text table marking so the data range is recorded.
	res2 := markedResolver{fakeResolver: res, addr: truth.Addr, entry: truth.EntrySize, n: truth.N}
	g, err := BuildGraph(img, res2)
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := funcByName(g, "main")
	if fn.Err != nil {
		t.Fatalf("analysis failed: %v", fn.Err)
	}
	if len(fn.DataRanges) != 1 {
		t.Fatalf("data ranges = %v", fn.DataRanges)
	}
	dr := fn.DataRanges[0]
	if dr[0] != truth.Addr || dr[1] != truth.Addr+uint64(truth.EntrySize*truth.N) {
		t.Errorf("data range %v, want table [%#x,%#x)", dr, truth.Addr, truth.Addr+uint64(truth.EntrySize*truth.N))
	}
	// Blocks must not overlap the table.
	for _, blk := range fn.Blocks {
		if blk.Start < dr[1] && dr[0] < blk.End {
			t.Errorf("block [%#x,%#x) overlaps table data", blk.Start, blk.End)
		}
	}
}

// markedResolver wraps fakeResolver, adding in-text table metadata.
type markedResolver struct {
	*fakeResolver
	addr  uint64
	entry int
	n     int
}

func (r markedResolver) ResolveJump(b *bin.Binary, f *Func, jumpAddr uint64) (*ResolvedTable, error) {
	tbl, err := r.fakeResolver.ResolveJump(b, f, jumpAddr)
	if err != nil {
		return nil, err
	}
	tbl.TableAddr = r.addr
	tbl.EntrySize = r.entry
	tbl.Count = r.n
	tbl.InText = true
	return tbl, nil
}

// funcByName returns the named function of g.
func funcByName(g *Graph, name string) (*Func, bool) {
	for _, f := range g.Funcs {
		if f.Name == name {
			return f, true
		}
	}
	return nil, false
}
