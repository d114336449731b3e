package asm

import (
	"fmt"

	"icfgpatch/internal/arch"
)

// Builder accumulates a whole program before linking.
type Builder struct {
	arch     arch.Arch
	pie      bool
	shared   bool
	cfi      bool
	textBase uint64
	meta     map[string]string
	entry    string

	funcs   []*FuncBuilder
	funcIdx map[string]int
	globals []*Global
	globIdx map[string]int
	rodata  []rodataItem
	exports map[string]bool
	// keepLinkRelocs emulates linking with -Wl,-q: link-time relocations
	// for function addresses in data are retained (BOLT's precondition).
	keepLinkRelocs bool
}

// New returns a Builder for the architecture. PIE binaries use
// PC-relative global access and carry runtime relocations for absolute
// pointers; position dependent binaries bake absolute addresses in.
func New(a arch.Arch, pie bool) *Builder {
	base := uint64(0x401000)
	if pie {
		base = 0x1000
	}
	return &Builder{
		arch:     a,
		pie:      pie,
		textBase: base,
		meta:     map[string]string{"lang": "c"},
		entry:    "main",
		funcIdx:  map[string]int{},
		globIdx:  map[string]int{},
		exports:  map[string]bool{},
	}
}

// Arch returns the target architecture.
func (b *Builder) Arch() arch.Arch { return b.arch }

// PIE reports whether the output is position independent.
func (b *Builder) PIE() bool { return b.pie }

// SetMeta records a .note.lang key (e.g. "lang", "exceptions",
// "go-runtime").
func (b *Builder) SetMeta(key, value string) { b.meta[key] = value }

// SetEntry selects the entry function (default "main").
func (b *Builder) SetEntry(name string) { b.entry = name }

// SetSharedLib marks the output as a shared library (no entry function
// required; implies PIE semantics for addressing decisions).
func (b *Builder) SetSharedLib() { b.shared = true }

// KeepLinkRelocs retains link-time relocations in the output, the
// equivalent of linking with -Wl,-q that BOLT requires.
func (b *Builder) KeepLinkRelocs() { b.keepLinkRelocs = true }

// SetCFI marks the program as compiled with hardware-CFI landing pads:
// the linker prepends an arch.Mark to every function prologue (the
// compiler's -fcf-protection behaviour), and the "cfi=1" note is
// recorded so analyses know markers are supposed to be complete.
// Builders must additionally call FuncBuilder.Mark at every jump-table
// case label and any other computed-branch target they emit.
func (b *Builder) SetCFI() {
	b.cfi = true
	b.meta["cfi"] = "1"
}

// CFI reports whether SetCFI was called.
func (b *Builder) CFI() bool { return b.cfi }

// Func starts a new function. Functions are laid out in declaration
// order.
func (b *Builder) Func(name string) *FuncBuilder {
	if _, dup := b.funcIdx[name]; dup {
		panic(fmt.Sprintf("asm: duplicate function %q", name))
	}
	f := &FuncBuilder{b: b, name: name, frame: 0}
	b.funcIdx[name] = len(b.funcs)
	b.funcs = append(b.funcs, f)
	return f
}

// Export adds the named function to the dynamic symbol table.
func (b *Builder) Export(name string) { b.exports[name] = true }

// Global defines a zero-initialised data object of the given size.
func (b *Builder) Global(name string, size int) {
	b.addGlobal(&Global{Name: name, Init: make([]byte, size)})
}

// GlobalInit defines a data object with initial contents.
func (b *Builder) GlobalInit(name string, data []byte) {
	b.addGlobal(&Global{Name: name, Init: append([]byte(nil), data...)})
}

// FuncPtrGlobal defines an 8-byte data cell holding the address of
// function target plus addend. In PIE the cell carries a runtime
// RelocRelative entry, which is what makes function pointers visible to
// relocation-based analyses; addend != 0 reproduces the Go runtime's
// "function entry plus one" pattern from Listing 1 of the paper.
func (b *Builder) FuncPtrGlobal(name, target string, addend int64) {
	b.addGlobal(&Global{Name: name, Init: make([]byte, 8), PtrTo: target, Addend: addend})
}

func (b *Builder) addGlobal(g *Global) {
	if _, dup := b.globIdx[g.Name]; dup {
		panic(fmt.Sprintf("asm: duplicate global %q", g.Name))
	}
	b.globIdx[g.Name] = len(b.globals)
	b.globals = append(b.globals, g)
}

// RodataBytes places a read-only blob in .rodata, in insertion order
// relative to jump tables — generators use it to separate tables with
// constant data (Assumption 2 of the paper).
func (b *Builder) RodataBytes(name string, data []byte) {
	b.rodata = append(b.rodata, rodataItem{name: name, data: append([]byte(nil), data...), align: 8})
}

// FuncBuilder assembles one function. The zero frame is grown with
// SetFrame; prologue and epilogue are synthesised at link time, and the
// function's unwind recipe (FDE) is derived from them.
type FuncBuilder struct {
	b       *Builder
	name    string
	frame   int64
	hasCall bool
	slots   []slot
	nlabels int
	binds   map[Label]int // label -> slot index
	tables  []*jumpTable
	tries   []tryRegion
	// labelAddr is filled during layout.
	labelAddr map[Label]uint64
	start     uint64
	end       uint64
}

// Name returns the function's name.
func (f *FuncBuilder) Name() string { return f.name }

// SetFrame sets the local-variable frame size in bytes (0..1024,
// 8-aligned). Non-leaf functions on the fixed-width ISAs get at least 16
// bytes so the prologue can save the link register.
func (f *FuncBuilder) SetFrame(n int64) {
	if n < 0 || n > 1024 || n%8 != 0 {
		panic(fmt.Sprintf("asm: bad frame size %d", n))
	}
	f.frame = n
}

// NewLabel allocates an unbound label.
func (f *FuncBuilder) NewLabel() Label {
	f.nlabels++
	return Label(f.nlabels - 1)
}

// Bind attaches the label to the current position.
func (f *FuncBuilder) Bind(l Label) {
	if f.binds == nil {
		f.binds = map[Label]int{}
	}
	if _, dup := f.binds[l]; dup {
		panic(fmt.Sprintf("asm: label %d bound twice in %s", l, f.name))
	}
	f.binds[l] = len(f.slots)
}

// Here allocates and binds a label at the current position.
func (f *FuncBuilder) Here() Label {
	l := f.NewLabel()
	f.Bind(l)
	return l
}

// I emits a raw instruction.
func (f *FuncBuilder) I(ins arch.Instr) {
	if ins.IsCall() {
		f.hasCall = true
	}
	f.slots = append(f.slots, slot{ins: ins, tableIx: -1})
}

func (f *FuncBuilder) iref(ins arch.Instr, r ref) {
	if ins.IsCall() {
		f.hasCall = true
	}
	rc := r
	f.slots = append(f.slots, slot{ins: ins, ref: &rc, tableIx: -1})
}

// Nop emits a no-op.
func (f *FuncBuilder) Nop() { f.I(arch.Instr{Kind: arch.Nop}) }

// Mark emits a landing-pad marker (arch.Mark) at the current position.
// CFI builders place one at every indirect-branch target that is not a
// function entry (entries are marked automatically by SetCFI).
func (f *FuncBuilder) Mark() { f.I(arch.Instr{Kind: arch.Mark}) }

// Li loads the constant v into rd, synthesising movz/movk sequences on
// the fixed-width ISAs.
func (f *FuncBuilder) Li(rd arch.Reg, v int64) {
	if f.b.arch == arch.X64 {
		f.I(arch.Instr{Kind: arch.MovImm, Rd: rd, Imm: v})
		return
	}
	u := uint64(v)
	f.I(arch.Instr{Kind: arch.MovImm16, Rd: rd, Imm: int64(u & 0xFFFF)})
	for sh := uint8(1); sh < 4; sh++ {
		chunk := (u >> (16 * sh)) & 0xFFFF
		if chunk != 0 {
			f.I(arch.Instr{Kind: arch.MovK16, Rd: rd, Imm: int64(chunk), Shift: sh})
		}
	}
}

// Mov copies rs into rd.
func (f *FuncBuilder) Mov(rd, rs arch.Reg) { f.I(arch.Instr{Kind: arch.MovReg, Rd: rd, Rs1: rs}) }

// Op3 emits rd = rs1 <op> rs2.
func (f *FuncBuilder) Op3(op arch.ALUOp, rd, rs1, rs2 arch.Reg) {
	f.I(arch.Instr{Kind: arch.ALU, Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// OpI emits rd = rs1 <op> imm (imm must fit the architecture's ALU
// immediate field: 12 bits signed on fixed-width ISAs).
func (f *FuncBuilder) OpI(op arch.ALUOp, rd, rs1 arch.Reg, imm int64) {
	f.I(arch.Instr{Kind: arch.ALUImm, Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}

// LoadLocal reads a frame slot: rd = mem[sp + off].
func (f *FuncBuilder) LoadLocal(rd arch.Reg, off int64) {
	f.I(arch.Instr{Kind: arch.Load, Rd: rd, Rs1: arch.SP, Size: 8, Imm: off})
}

// StoreLocal writes a frame slot: mem[sp + off] = rs.
func (f *FuncBuilder) StoreLocal(rs arch.Reg, off int64) {
	f.I(arch.Instr{Kind: arch.Store, Rs2: rs, Rs1: arch.SP, Size: 8, Imm: off})
}

// BranchTo emits an unconditional branch to the label.
func (f *FuncBuilder) BranchTo(l Label) {
	f.iref(arch.Instr{Kind: arch.Branch}, ref{mode: refPC, label: l, table: -1})
}

// BranchCondTo emits a conditional branch to the label, testing rs
// against zero.
func (f *FuncBuilder) BranchCondTo(c arch.Cond, rs arch.Reg, l Label) {
	f.iref(arch.Instr{Kind: arch.BranchCond, Cond: c, Rs1: rs}, ref{mode: refPC, label: l, table: -1})
}

// CallF emits a direct call to the named function.
func (f *FuncBuilder) CallF(name string) {
	f.iref(arch.Instr{Kind: arch.Call}, ref{mode: refPC, sym: name, table: -1})
}

// TailJumpReg emits an indirect tail call: an indirect jump whose target
// is a function entry in rs. Unresolvable by jump-table analysis, it is
// the construct the paper's gap-based tail call heuristic rescues.
func (f *FuncBuilder) TailJumpReg(rs arch.Reg) {
	f.I(arch.Instr{Kind: arch.JumpInd, Rs1: rs})
}

// LoadGlobalAddr forms the address of a global or function in rd: Lea or
// RIP-like addressing in PIE, movz/movk or movimm absolute
// materialisation in position dependent code.
func (f *FuncBuilder) LoadGlobalAddr(rd arch.Reg, name string) {
	switch {
	case f.b.pie && f.b.arch == arch.X64:
		f.iref(arch.Instr{Kind: arch.Lea, Rd: rd}, ref{mode: refPC, sym: name, table: -1})
	case f.b.pie:
		f.iref(arch.Instr{Kind: arch.LeaHi, Rd: rd}, ref{mode: refPage, sym: name, table: -1})
		f.iref(arch.Instr{Kind: arch.AddImm16, Rd: rd, Rs1: rd}, ref{mode: refLo12, sym: name, table: -1})
	case f.b.arch == arch.X64:
		f.iref(arch.Instr{Kind: arch.MovImm, Rd: rd}, ref{mode: refAbs64, sym: name, table: -1})
	default:
		f.iref(arch.Instr{Kind: arch.MovImm16, Rd: rd}, ref{mode: refAbs16, sym: name, table: -1})
		f.iref(arch.Instr{Kind: arch.MovK16, Rd: rd, Shift: 1}, ref{mode: refAbs16, sym: name, table: -1})
	}
}

// LoadGlobal reads size bytes from the named global into rd, clobbering
// tmp for the address on paths that need it. PIE X64 uses a RIP-relative
// load, the idiom function-pointer analysis keys on.
func (f *FuncBuilder) LoadGlobal(rd, tmp arch.Reg, name string, size uint8) {
	if f.b.pie && f.b.arch == arch.X64 {
		f.iref(arch.Instr{Kind: arch.LoadPC, Rd: rd, Size: size}, ref{mode: refPC, sym: name, table: -1})
		return
	}
	f.LoadGlobalAddr(tmp, name)
	f.I(arch.Instr{Kind: arch.Load, Rd: rd, Rs1: tmp, Size: size})
}

// StoreGlobal writes size bytes of rs to the named global, clobbering
// tmp for the address.
func (f *FuncBuilder) StoreGlobal(rs, tmp arch.Reg, name string, size uint8) {
	f.LoadGlobalAddr(tmp, name)
	f.I(arch.Instr{Kind: arch.Store, Rs2: rs, Rs1: tmp, Size: size})
}

// CallPtr loads a code pointer from the named global cell and calls it.
func (f *FuncBuilder) CallPtr(tmp arch.Reg, cell string) {
	f.LoadGlobal(tmp, tmp, cell, 8)
	f.I(arch.Instr{Kind: arch.CallInd, Rs1: tmp})
}

// CallStackSlot stores the pointer in rs to a stack slot and calls
// through the memory operand — the indirect-call-through-stack construct
// that broke Dyninst-10.2's call emulation (Section 8.1).
func (f *FuncBuilder) CallStackSlot(rs arch.Reg, off int64) {
	f.StoreLocal(rs, off)
	f.I(arch.Instr{Kind: arch.CallIndMem, Rs1: arch.SP, Imm: off})
}

// BeginTry opens an exception try region ending at EndTry.
func (f *FuncBuilder) BeginTry() {
	f.tries = append(f.tries, tryRegion{startSlot: len(f.slots), endSlot: -1})
}

// EndTry closes the innermost open try region, dispatching throws inside
// it to the catch label.
func (f *FuncBuilder) EndTry(catch Label) {
	for i := len(f.tries) - 1; i >= 0; i-- {
		if f.tries[i].endSlot == -1 {
			f.tries[i].endSlot = len(f.slots)
			f.tries[i].catch = catch
			return
		}
	}
	panic("asm: EndTry without BeginTry in " + f.name)
}

// Throw raises an exception.
func (f *FuncBuilder) Throw() { f.I(arch.Instr{Kind: arch.Throw}) }

// Print emits a syscall printing the value of rs to the program output.
func (f *FuncBuilder) Print(rs arch.Reg) {
	if rs != arch.R1 {
		f.Mov(arch.R1, rs)
	}
	f.I(arch.Instr{Kind: arch.Syscall, Imm: 1})
}

// Return emits the epilogue and return (expanded at link time once leaf
// status is known).
func (f *FuncBuilder) Return() {
	f.slots = append(f.slots, slot{pseudo: pseudoRet, tableIx: -1})
}

// Halt stops the program with the exit status in r0.
func (f *FuncBuilder) Halt() { f.I(arch.Instr{Kind: arch.Halt}) }

// Trap emits a trap instruction (used by tests).
func (f *FuncBuilder) Trap() { f.I(arch.Instr{Kind: arch.Trap}) }

// Switch emits a jump-table dispatch on idx with len(targets) cases and
// a default label, using the architecture's table idiom. tmp1 and tmp2
// are clobbered; idx is preserved. Opts select analysis-hostile
// variants.
func (f *FuncBuilder) Switch(idx, tmp1, tmp2 arch.Reg, targets []Label, def Label, opts SwitchOpts) {
	if len(targets) == 0 {
		panic("asm: switch with no cases in " + f.name)
	}
	tbl := &jumpTable{targets: append([]Label(nil), targets...), fn: f, loadSlot: -1, dispatchSlot: -1}
	tix := len(f.tables)
	f.tables = append(f.tables, tbl)

	// Bounds check: tmp1 = idx - N; if tmp1 >= 0 goto default.
	f.OpI(arch.Sub, tmp1, idx, int64(len(targets)))
	f.BranchCondTo(arch.GE, tmp1, def)

	dispatchIdx := idx
	if opts.SpillIndex {
		// Spill and reload the index through the stack between the
		// bounds check and the table read.
		f.StoreLocal(idx, 0)
		f.LoadLocal(tmp2, 0)
		dispatchIdx = tmp2
	}

	switch f.b.arch {
	case arch.X64:
		if f.b.pie {
			tbl.style = TableRel32
		} else {
			tbl.style = TableAbs64
		}
		f.tableBase(tmp1, tix, opts)
		tbl.loadSlot = len(f.slots)
		if tbl.style == TableAbs64 {
			f.I(arch.Instr{Kind: arch.LoadIdx, Rd: tmp2, Rs1: tmp1, Rs2: dispatchIdx, Size: 8, Scale: 8})
		} else {
			// movsxd idiom: table-relative entries are signed.
			f.I(arch.Instr{Kind: arch.LoadIdx, Rd: tmp2, Rs1: tmp1, Rs2: dispatchIdx, Size: 4, Scale: 4, Signed: true})
			f.Op3(arch.Add, tmp2, tmp2, tmp1)
		}
		tbl.dispatchSlot = len(f.slots)
		f.I(arch.Instr{Kind: arch.JumpInd, Rs1: tmp2})
		f.b.rodata = append(f.b.rodata, rodataItem{name: tableSymbol(f.name, tix), table: tbl})
	case arch.PPC:
		// Table embedded in .text immediately after the dispatch, with
		// 4-byte table-relative entries (Assumption 1 of the paper does
		// not hold here).
		tbl.style = TableRel32
		tbl.inText = true
		f.tableBase(tmp1, tix, opts)
		tbl.loadSlot = len(f.slots)
		// lwa idiom: in-text table entries are signed (cases may precede
		// the table).
		f.I(arch.Instr{Kind: arch.LoadIdx, Rd: tmp2, Rs1: tmp1, Rs2: dispatchIdx, Size: 4, Scale: 4, Signed: true})
		f.Op3(arch.Add, tmp2, tmp2, tmp1)
		tbl.dispatchSlot = len(f.slots)
		f.I(arch.Instr{Kind: arch.JumpInd, Rs1: tmp2})
		f.slots = append(f.slots, slot{tableIx: tix})
	case arch.A64:
		// 1- or 2-byte unsigned (target-funcStart)/4 entries in .rodata;
		// style is finalised at layout time when the function size is
		// known (small functions get 1-byte entries).
		tbl.style = TableRel16
		f.tableBase(tmp1, tix, opts)
		tbl.loadSlot = len(f.slots)
		f.I(arch.Instr{Kind: arch.LoadIdx, Rd: tmp2, Rs1: tmp1, Rs2: dispatchIdx, Size: 2, Scale: 2})
		f.OpI(arch.Shl, tmp2, tmp2, 2)
		// tmp1 = function start address.
		f.iref(arch.Instr{Kind: arch.Lea, Rd: tmp1}, ref{mode: refPC, sym: f.name, table: -1})
		f.Op3(arch.Add, tmp2, tmp2, tmp1)
		tbl.dispatchSlot = len(f.slots)
		f.I(arch.Instr{Kind: arch.JumpInd, Rs1: tmp2})
		f.b.rodata = append(f.b.rodata, rodataItem{name: tableSymbol(f.name, tix), table: tbl})
	}
}

// tableBase forms the address of table tix in rd, either PC-relatively
// (analysable) or through an opaque data cell (Failure 1).
func (f *FuncBuilder) tableBase(rd arch.Reg, tix int, opts SwitchOpts) {
	if opts.OpaqueBase {
		cell := fmt.Sprintf(".%s.tbl%d.cell", f.name, tix)
		f.b.addGlobal(&Global{Name: cell, Init: make([]byte, 8), PtrTo: tableSymbol(f.name, tix)})
		f.LoadGlobal(rd, rd, cell, 8)
		return
	}
	if f.b.arch == arch.PPC || (f.b.arch == arch.A64 && !f.b.pie) || f.b.arch == arch.A64 {
		// PPC tables are nearby in .text (adr reaches); A64 tables live
		// in .rodata, reached with adrp/add.
		if f.b.arch == arch.PPC {
			f.iref(arch.Instr{Kind: arch.Lea, Rd: rd}, ref{mode: refPC, table: tix, label: -1})
			return
		}
		f.iref(arch.Instr{Kind: arch.LeaHi, Rd: rd}, ref{mode: refPage, table: tix, label: -1})
		f.iref(arch.Instr{Kind: arch.AddImm16, Rd: rd, Rs1: rd}, ref{mode: refLo12, table: tix, label: -1})
		return
	}
	// X64: lea table(%rip) in PIE, movabs in position dependent code.
	if f.b.pie {
		f.iref(arch.Instr{Kind: arch.Lea, Rd: rd}, ref{mode: refPC, table: tix, label: -1})
	} else {
		f.iref(arch.Instr{Kind: arch.MovImm, Rd: rd}, ref{mode: refAbs64, table: tix, label: -1})
	}
}

// tableSymbol names the linker-internal symbol of a jump table.
func tableSymbol(fn string, tix int) string { return fmt.Sprintf(".%s.jt%d", fn, tix) }
