package arch

import "fmt"

// This file implements the trampoline instruction sequences of Section 7
// (Table 2) of the paper. All sequences are position independent: X64 and
// A64 trampolines are PC-relative, and the PPC long trampoline forms its
// target relative to the TOC register r2, whose value the compiler
// establishes position-independently.
//
//	Arch  Sequence                                        Range   Len
//	x64   2-byte branch                                   ±128B   2B
//	x64   5-byte branch                                   ±2GB    5B
//	ppc   b                                               ±32MB   1I
//	ppc   addis r,r2,hi; addi r,r,lo; mtspr tar,r; bctar  ±2GB    4I
//	a64   b                                               ±128MB  1I
//	a64   adrp r,hi; add r,r,lo; br r                     ±4GB    3I
//
// On PPC, when no dead register is available the trampoline spills one to
// the stack around the address computation (6 instructions). On A64 there
// is no architected spill slot below SP that is async-signal safe in the
// paper's model, so the rewriter falls back to a trap. The 1-byte (X64) or
// 1-instruction trap is the last resort on every architecture.

// TrampolineClass ranks trampoline forms from cheapest to most expensive.
type TrampolineClass uint8

// Trampoline classes in preference order.
const (
	// TrampShort is the architecture's shortest direct branch form.
	TrampShort TrampolineClass = iota
	// TrampLong is the long-range form: the 5-byte branch on X64, the
	// 4-instruction TOC sequence on PPC, the 3-instruction adrp sequence
	// on A64.
	TrampLong
	// TrampLongSpill is the PPC long form with a register spill/restore
	// when liveness analysis finds no dead register (6 instructions).
	TrampLongSpill
	// TrampMulti is the multi-trampoline form: a short branch in the
	// block to a long trampoline installed in scratch space (padding
	// bytes, unused superblock space, or a retired dynamic-linking
	// section).
	TrampMulti
	// TrampTrap is a 1-byte/1-instruction trap whose handler performs the
	// transfer; it always fits but costs a signal delivery at runtime.
	TrampTrap
)

// String names the class.
func (c TrampolineClass) String() string {
	switch c {
	case TrampShort:
		return "short"
	case TrampLong:
		return "long"
	case TrampLongSpill:
		return "long+spill"
	case TrampMulti:
		return "multi-hop"
	case TrampTrap:
		return "trap"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Trampoline is a concrete trampoline: the instruction sequence to place
// at From so that execution continues at To.
type Trampoline struct {
	Class TrampolineClass
	From  uint64
	To    uint64
	// Instrs is the sequence, with Addr fields assigned from From.
	Instrs []Instr
	// Len is the total encoded length in bytes.
	Len int
	// Scratch is the register the sequence clobbers, if any.
	Scratch Reg
}

// ShortTrampolineLen returns the encoded length in bytes of the short
// trampoline form.
func ShortTrampolineLen(a Arch) int {
	if a == X64 {
		return 2
	}
	return 4
}

// LongTrampolineLen returns the encoded length in bytes of the long
// trampoline form (without a spill).
func LongTrampolineLen(a Arch) int {
	switch a {
	case X64:
		return 5
	case PPC:
		return 16
	default:
		return 12
	}
}

// LongSpillTrampolineLen returns the length of the PPC spill variant.
func LongSpillTrampolineLen(a Arch) int {
	if a == PPC {
		return 24
	}
	return LongTrampolineLen(a)
}

// TrapTrampolineLen returns the length of the trap form.
func TrapTrampolineLen(a Arch) int {
	if a == X64 {
		return 1
	}
	return 4
}

// NewShortTrampoline builds the short-form trampoline from from to to, or
// reports ok=false if the displacement exceeds the short form's range.
func NewShortTrampoline(a Arch, from, to uint64) (Trampoline, bool) {
	disp := int64(to - from)
	if disp > ShortBranchRange(a) || disp < -ShortBranchRange(a)-1 {
		return Trampoline{}, false
	}
	if a.FixedWidth() && disp&3 != 0 {
		return Trampoline{}, false
	}
	ins := Instr{Kind: Branch, Imm: disp, Addr: from, Short: a == X64}
	return Trampoline{
		Class:  TrampShort,
		From:   from,
		To:     to,
		Instrs: []Instr{ins},
		Len:    ShortTrampolineLen(a),
	}, true
}

// NewLongTrampoline builds the long-form trampoline. On X64 the long form
// is the 5-byte branch and scratch is ignored. On PPC the target is formed
// relative to tocValue (the runtime value of r2); scratch may be NoReg, in
// which case the spill variant is produced. On A64 a scratch register is
// mandatory: with scratch == NoReg it reports ok=false, and the caller
// must fall back to a trap (Section 7: "on aarch64, if we cannot find a
// scratch register, we fall back to trap").
func NewLongTrampoline(a Arch, from, to uint64, scratch Reg, tocValue uint64) (Trampoline, bool) {
	switch a {
	case X64:
		disp := int64(to - from)
		if !fitsSigned(disp, 32) {
			return Trampoline{}, false
		}
		return Trampoline{
			Class:  TrampLong,
			From:   from,
			To:     to,
			Instrs: []Instr{{Kind: Branch, Imm: disp, Addr: from}},
			Len:    5,
		}, true
	case PPC:
		off := int64(to - tocValue)
		if !fitsSigned(off, 32) {
			return Trampoline{}, false
		}
		lo := int64(int16(off))
		hi := (off - lo) >> 16
		if !fitsSigned(hi, 16) {
			return Trampoline{}, false
		}
		if scratch != NoReg {
			ins := []Instr{
				{Kind: AddIS, Rd: scratch, Rs1: TOCReg, Imm: hi},
				{Kind: AddImm16, Rd: scratch, Rs1: scratch, Imm: lo},
				{Kind: MovReg, Rd: TAR, Rs1: scratch},
				{Kind: JumpInd, Rs1: TAR},
			}
			return finishSeq(a, TrampLong, from, to, scratch, ins), true
		}
		// Spill variant: save r6 below the stack pointer, restore it
		// after the target has been moved into TAR.
		s := R6
		ins := []Instr{
			{Kind: Store, Rs2: s, Rs1: SP, Size: 8, Imm: -8},
			{Kind: AddIS, Rd: s, Rs1: TOCReg, Imm: hi},
			{Kind: AddImm16, Rd: s, Rs1: s, Imm: lo},
			{Kind: MovReg, Rd: TAR, Rs1: s},
			{Kind: Load, Rd: s, Rs1: SP, Size: 8, Imm: -8},
			{Kind: JumpInd, Rs1: TAR},
		}
		return finishSeq(a, TrampLongSpill, from, to, s, ins), true
	case A64:
		if scratch == NoReg {
			return Trampoline{}, false
		}
		page := int64((to &^ 0xFFF) - (from &^ 0xFFF))
		loBits := int64(to & 0xFFF)
		if !fitsSigned(page>>12, 21) {
			return Trampoline{}, false
		}
		ins := []Instr{
			{Kind: LeaHi, Rd: scratch, Imm: page},
			{Kind: ALUImm, Op: Add, Rd: scratch, Rs1: scratch, Imm: loBits},
			{Kind: JumpInd, Rs1: scratch},
		}
		return finishSeq(a, TrampLong, from, to, scratch, ins), true
	default:
		return Trampoline{}, false
	}
}

// NewTrapTrampoline builds the last-resort trap trampoline. The transfer
// target is recorded out of band (in the rewritten binary's trampoline map
// consumed by the runtime library's signal handler).
func NewTrapTrampoline(a Arch, from, to uint64) Trampoline {
	return Trampoline{
		Class:  TrampTrap,
		From:   from,
		To:     to,
		Instrs: []Instr{{Kind: Trap, Addr: from}},
		Len:    TrapTrampolineLen(a),
	}
}

// finishSeq assigns addresses and computes the total length of a
// fixed-width sequence.
func finishSeq(a Arch, class TrampolineClass, from, to uint64, scratch Reg, ins []Instr) Trampoline {
	addr := from
	for k := range ins {
		ins[k].Addr = addr
		ins[k].EncLen = 4
		addr += 4
	}
	return Trampoline{
		Class:   class,
		From:    from,
		To:      to,
		Instrs:  ins,
		Len:     len(ins) * 4,
		Scratch: scratch,
	}
}

// Encode serialises the trampoline's instruction sequence.
func (t Trampoline) Encode(a Arch) ([]byte, error) {
	enc := ForArch(a)
	out := make([]byte, 0, t.Len)
	for _, ins := range t.Instrs {
		var err error
		if out, err = enc.Append(out, ins); err != nil {
			return nil, fmt.Errorf("arch: %s: encoding %s trampoline at %#x -> %#x: %w", a, t.Class, t.From, t.To, err)
		}
	}
	if len(out) != t.Len {
		return nil, fmt.Errorf("arch: %s: %s trampoline at %#x -> %#x length mismatch: declared %d, encoded %d",
			a, t.Class, t.From, t.To, t.Len, len(out))
	}
	return out, nil
}

// Table2Row is one row of the paper's Table 2, regenerated by the
// experiment harness.
type Table2Row struct {
	Arch     Arch
	Sequence string
	Range    string // one-sided ± branching range
	Len      string // bytes (B) on x64, instructions (I) on fixed-width ISAs
}

// Table2 returns the trampoline design table (paper Table 2).
func Table2() []Table2Row {
	return []Table2Row{
		{X64, "2-byte branch", "128B", "2B"},
		{X64, "5-byte branch", "2GB", "5B"},
		{PPC, "b", "32MB", "1I"},
		{PPC, "addis reg,r2,hi; addi reg,reg,lo; mtspr tar,reg; bctar", "2GB", "4I"},
		{A64, "b", "128MB", "1I"},
		{A64, "adrp reg,hi; add reg,reg,lo; br reg", "4GB", "3I"},
	}
}
