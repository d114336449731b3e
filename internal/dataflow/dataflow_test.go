package dataflow

import (
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/asm"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/cfg"
)

func buildFunc(t *testing.T, a arch.Arch, build func(*asm.FuncBuilder)) (*bin.Binary, *cfg.Func) {
	t.Helper()
	b := asm.New(a, false)
	f := b.Func("main")
	build(f)
	img, _, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	g, err := buildGraph(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	fn, ok := funcByName(g, "main")
	if !ok {
		t.Fatal("main missing")
	}
	return img, fn
}

func TestLivenessStraightLine(t *testing.T) {
	_, fn := buildFunc(t, arch.X64, func(f *asm.FuncBuilder) {
		f.Li(arch.R3, 1)
		f.Op3(arch.Add, arch.R4, arch.R3, arch.R3) // uses r3
		f.Print(arch.R4)
		f.Halt()
	})
	lv := ComputeLiveness(arch.X64, fn)
	in := lv.LiveIn(fn.Entry)
	// r3 and r4 are defined before use: dead at entry.
	if in.Has(arch.R3) || in.Has(arch.R4) {
		t.Errorf("liveIn = %v: locally defined registers reported live", in)
	}
}

func TestLivenessAcrossBranches(t *testing.T) {
	_, fn := buildFunc(t, arch.A64, func(f *asm.FuncBuilder) {
		els := f.NewLabel()
		join := f.NewLabel()
		f.BranchCondTo(arch.EQ, arch.R5, els)      // r5 used at entry
		f.Op3(arch.Add, arch.R3, arch.R6, arch.R6) // r6 used on this path
		f.BranchTo(join)
		f.Bind(els)
		f.Op3(arch.Add, arch.R3, arch.R7, arch.R7) // r7 used on this path
		f.Bind(join)
		f.Print(arch.R3)
		f.Halt()
	})
	lv := ComputeLiveness(arch.A64, fn)
	in := lv.LiveIn(fn.Entry)
	for _, r := range []arch.Reg{arch.R5, arch.R6, arch.R7} {
		if !in.Has(r) {
			t.Errorf("register %s used on some path but not live at entry (%v)", r, in)
		}
	}
	if in.Has(arch.R10) {
		t.Errorf("r10 never used but live at entry")
	}
}

func TestLivenessDeadAtFindsScratch(t *testing.T) {
	_, fn := buildFunc(t, arch.PPC, func(f *asm.FuncBuilder) {
		f.Op3(arch.Add, arch.R0, arch.R1, arch.R2)
		f.Halt()
	})
	lv := ComputeLiveness(arch.PPC, fn)
	r := lv.DeadAt(fn.Entry)
	if r == arch.NoReg {
		t.Fatal("no scratch register in a function using three registers")
	}
	if lv.LiveIn(fn.Entry).Has(r) {
		t.Errorf("DeadAt returned live register %s", r)
	}
}

func TestLivenessConservativeAtUnresolvedJump(t *testing.T) {
	b := asm.New(arch.X64, false)
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
	g, _ := buildGraph(img, nil)
	fn, _ := funcByName(g, "main")
	lv := ComputeLiveness(arch.X64, fn)
	// Everything must be live at the indirect-jump block: the unknown
	// target may read any register. Only the locally clobbered r9 is
	// allowed to be dead at entry.
	in := lv.LiveIn(fn.Entry)
	for r := arch.R0; r < arch.SP; r++ {
		if r != arch.R9 && !in.Has(r) {
			t.Errorf("register %s dead despite unresolved indirect control flow", r)
		}
	}
}

func TestLivenessUnknownBlockIsAllLive(t *testing.T) {
	_, fn := buildFunc(t, arch.X64, func(f *asm.FuncBuilder) { f.Halt() })
	lv := ComputeLiveness(arch.X64, fn)
	if lv.DeadAt(0xdeadbeef) != arch.NoReg {
		t.Error("unknown block produced a scratch register")
	}
}

// sliceProgram builds main with the canonical dispatch idiom and returns
// the function and the address of its indirect jump.
func sliceSetup(t *testing.T, a arch.Arch, opts asm.SwitchOpts) (*bin.Binary, *cfg.Func, uint64, *asm.DebugInfo) {
	t.Helper()
	b := asm.New(a, false)
	f := b.Func("main")
	f.SetFrame(16)
	f.Li(arch.R8, 1)
	cases := []asm.Label{f.NewLabel(), f.NewLabel(), f.NewLabel()}
	def := f.NewLabel()
	join := f.NewLabel()
	f.Switch(arch.R8, arch.R9, arch.R10, cases, def, opts)
	for _, c := range cases {
		f.Bind(c)
		f.BranchTo(join)
	}
	f.Bind(def)
	f.Bind(join)
	f.Halt()
	b.SetEntry("main")
	img, dbg, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	// Resolve with ground truth so case blocks exist, mirroring the
	// iterative construction.
	truth := dbg.Tables[0]
	g, err := buildGraph(img, truthResolver{truth})
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := funcByName(g, "main")
	return img, fn, truth.DispatchAddr, dbg
}

type truthResolver struct{ truth asm.TableInfo }

func (r truthResolver) ResolveJump(b *bin.Binary, f *cfg.Func, jumpAddr uint64) (*cfg.ResolvedTable, error) {
	return &cfg.ResolvedTable{
		JumpAddr: jumpAddr, Targets: r.truth.Targets, Count: r.truth.N,
		EntrySize: r.truth.EntrySize, Kind: cfg.TarAbs,
	}, nil
}

func TestSliceRecoversDispatchExpression(t *testing.T) {
	for _, a := range arch.All() {
		img, fn, jumpAddr, dbg := sliceSetup(t, a, asm.SwitchOpts{})
		blk, _ := fn.BlockContaining(jumpAddr)
		jmp := blk.Last()
		s := NewSlicer(a, fn, img.TOCValue)
		e := s.SliceValue(jumpAddr, jmp.Rs1, 96)
		truth := dbg.Tables[0]

		// Find the table load in the expression tree.
		var tl *Expr
		var walk func(*Expr)
		walk = func(x *Expr) {
			if x == nil {
				return
			}
			if x.Kind == ETableLoad {
				tl = x
			}
			walk(x.A)
			walk(x.B)
		}
		walk(e)
		if e.Kind == ETableLoad {
			tl = e
		}
		if tl == nil {
			t.Fatalf("%s: no table load in %s", a, e)
		}
		if tl.Base == nil || tl.Base.Kind != EConst || tl.Base.Const != truth.Addr {
			t.Errorf("%s: table base = %s, want %#x", a, tl.Base, truth.Addr)
		}
		if int(tl.Size) != truth.EntrySize {
			t.Errorf("%s: entry size %d, want %d", a, tl.Size, truth.EntrySize)
		}
	}
}

func TestFindBoundsCheck(t *testing.T) {
	for _, a := range arch.All() {
		img, fn, jumpAddr, _ := sliceSetup(t, a, asm.SwitchOpts{})
		blk, _ := fn.BlockContaining(jumpAddr)
		s := NewSlicer(a, fn, img.TOCValue)
		e := s.SliceValue(jumpAddr, blk.Last().Rs1, 96)
		var tl *Expr
		var walk func(*Expr)
		walk = func(x *Expr) {
			if x == nil {
				return
			}
			if x.Kind == ETableLoad {
				tl = x
			}
			walk(x.A)
			walk(x.B)
		}
		walk(e)
		if e.Kind == ETableLoad {
			tl = e
		}
		if tl == nil {
			t.Fatalf("%s: no table load", a)
		}
		n, ok := s.FindBoundsCheck(tl.LoadAddr, tl.IdxReg, 64)
		if !ok || n != 3 {
			t.Errorf("%s: bounds = %d, %v; want 3, true", a, n, ok)
		}
	}
}

func TestSpilledIndexDefeatsBoundsCheck(t *testing.T) {
	// The SpillIndex variant reloads the index from the stack: the
	// register at the table read is not the compared one, so bound
	// recovery must fail (paper Failure 2 setup).
	for _, a := range arch.All() {
		img, fn, jumpAddr, _ := sliceSetup(t, a, asm.SwitchOpts{SpillIndex: true})
		blk, _ := fn.BlockContaining(jumpAddr)
		s := NewSlicer(a, fn, img.TOCValue)
		e := s.SliceValue(jumpAddr, blk.Last().Rs1, 96)
		var tl *Expr
		var walk func(*Expr)
		walk = func(x *Expr) {
			if x == nil {
				return
			}
			if x.Kind == ETableLoad {
				tl = x
			}
			walk(x.A)
			walk(x.B)
		}
		walk(e)
		if e.Kind == ETableLoad {
			tl = e
		}
		if tl == nil {
			t.Fatalf("%s: table load still recoverable (base is what matters)", a)
		}
		if _, ok := s.FindBoundsCheck(tl.LoadAddr, tl.IdxReg, 64); ok {
			t.Errorf("%s: bounds check found despite the spill", a)
		}
	}
}

func TestOpaqueBaseDefeatsSlice(t *testing.T) {
	for _, a := range arch.All() {
		img, fn, jumpAddr, _ := sliceSetup(t, a, asm.SwitchOpts{OpaqueBase: true})
		blk, _ := fn.BlockContaining(jumpAddr)
		s := NewSlicer(a, fn, img.TOCValue)
		e := s.SliceValue(jumpAddr, blk.Last().Rs1, 96)
		var constBase bool
		var walk func(*Expr)
		walk = func(x *Expr) {
			if x == nil {
				return
			}
			if x.Kind == ETableLoad && x.Base != nil && x.Base.Kind == EConst {
				constBase = true
			}
			walk(x.A)
			walk(x.B)
			walk(x.Base)
		}
		walk(e)
		if constBase {
			t.Errorf("%s: opaque table base resolved to a constant", a)
		}
	}
}

func TestSliceConstantFolding(t *testing.T) {
	_, fn := buildFunc(t, arch.PPC, func(f *asm.FuncBuilder) {
		f.Li(arch.R3, 0x12345)
		f.OpI(arch.Add, arch.R4, arch.R3, 0x10)
		f.Mov(arch.R5, arch.R4)
		f.I(arch.Instr{Kind: arch.JumpInd, Rs1: arch.R5})
	})
	var jump uint64
	for _, blk := range fn.Blocks {
		if blk.Last().Kind == arch.JumpInd {
			jump = blk.Last().Addr
		}
	}
	s := NewSlicer(arch.PPC, fn, 0)
	e := s.SliceValue(jump, arch.R5, 32)
	if e.Kind != EConst || e.Const != 0x12355 {
		t.Errorf("expr = %s, want 0x12355", e)
	}
}

func TestSliceTOCRegisterIsConstant(t *testing.T) {
	_, fn := buildFunc(t, arch.PPC, func(f *asm.FuncBuilder) {
		f.I(arch.Instr{Kind: arch.AddIS, Rd: arch.R4, Rs1: arch.TOCReg, Imm: 2})
		f.I(arch.Instr{Kind: arch.JumpInd, Rs1: arch.R4})
	})
	var jump uint64
	for _, blk := range fn.Blocks {
		if blk.Last().Kind == arch.JumpInd {
			jump = blk.Last().Addr
		}
	}
	s := NewSlicer(arch.PPC, fn, 0x10008000)
	e := s.SliceValue(jump, arch.R4, 16)
	if e.Kind != EConst || e.Const != 0x10008000+2<<16 {
		t.Errorf("expr = %s, want TOC+0x20000", e)
	}
}

func TestSliceStackReloadIsUnknown(t *testing.T) {
	_, fn := buildFunc(t, arch.X64, func(f *asm.FuncBuilder) {
		f.SetFrame(16)
		f.LoadLocal(arch.R3, 0)
		f.I(arch.Instr{Kind: arch.JumpInd, Rs1: arch.R3})
	})
	var jump uint64
	for _, blk := range fn.Blocks {
		if blk.Last().Kind == arch.JumpInd {
			jump = blk.Last().Addr
		}
	}
	s := NewSlicer(arch.X64, fn, 0)
	e := s.SliceValue(jump, arch.R3, 16)
	if e.Kind != EUnknown || !e.FromStack {
		t.Errorf("expr = %s, want unknown(stack)", e)
	}
}

func TestExprStringer(t *testing.T) {
	e := &Expr{Kind: EAdd, A: constExpr(4), B: &Expr{Kind: EShl, A: unknown(false), Const: 2}}
	if e.String() == "" {
		t.Error("empty rendering")
	}
	if unknown(true).String() != "unknown(stack)" {
		t.Error("stack unknown rendering")
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

// buildGraph builds b's graph the way core.Analyze does without a unit
// store: one cfg.BuildFunc per function symbol, then cfg.Assemble.
func buildGraph(b *bin.Binary, resolver cfg.Resolver) (*cfg.Graph, error) {
	pads, err := cfg.UnwindTable(b)
	if err != nil {
		return nil, err
	}
	var funcs []*cfg.Func
	for _, sym := range b.FuncSymbols() {
		if sym.Size > 0 {
			funcs = append(funcs, cfg.BuildFunc(b, b.Text(), sym, pads, resolver))
		}
	}
	return cfg.Assemble(b, funcs), nil
}
