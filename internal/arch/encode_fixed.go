package arch

import "encoding/binary"

// fixedEncoding implements the 4-byte fixed-width encodings shared by PPC
// and A64. Every instruction is a little-endian uint32 whose top 6 bits
// select the opcode; the two architectures differ only in the width of
// their branch displacement fields, which yields the paper's ±32MB (PPC)
// versus ±128MB (A64) direct branch ranges, and ±32KB versus ±512KB
// conditional branch ranges. Branch displacements are stored in words
// (bytes/4) relative to the start of the instruction.
type fixedEncoding struct {
	arch Arch
}

// Fixed-width opcodes (6-bit values).
const (
	fopNop uint32 = iota
	fopMovImm16
	fopMovK16
	fopMovReg
	fopALU
	fopALUImm
	fopAddIS
	fopAddImm16
	fopLoad
	fopStore
	fopLoadIdx
	fopLea
	fopLeaHi
	fopLoadPC
	fopBranch
	fopBranchCond
	fopCall
	fopCallInd
	fopCallIndMem
	fopJumpInd
	fopRet
	fopTrap
	fopHalt
	fopSyscall
	fopThrow
	fopLoadS
	fopLoadIdxS
	fopLoadPCS
	fopMark
)

// branchBits returns the displacement field width (in words) of the
// unconditional branch and call instructions.
func (e fixedEncoding) branchBits() uint {
	if e.arch == PPC {
		return 24 // ±8M words = ±32MB
	}
	return 26 // ±32M words = ±128MB
}

// condBits returns the displacement field width of conditional branches.
func (e fixedEncoding) condBits() uint {
	if e.arch == PPC {
		return 14 // ±8K words = ±32KB
	}
	return 18 // ±128K words = ±512KB
}

// Arch implements Encoding.
func (e fixedEncoding) Arch() Arch { return e.arch }

// MaxLen implements Encoding.
func (fixedEncoding) MaxLen() int { return 4 }

// bitWriter packs fields into the low 26 bits of a word, consuming from
// the most significant operand bit downward.
type bitWriter struct {
	v   uint32
	pos uint
}

func (w *bitWriter) put(val uint32, width uint) {
	w.pos -= width
	w.v |= (val & (1<<width - 1)) << w.pos
}

// bitReader mirrors bitWriter for decoding.
type bitReader struct {
	v   uint32
	pos uint
}

func (r *bitReader) get(width uint) uint32 {
	r.pos -= width
	return (r.v >> r.pos) & (1<<width - 1)
}

func (r *bitReader) getS(width uint) int64 {
	u := uint64(r.get(width))
	shift := 64 - width
	return int64(u<<shift) >> shift
}

// wordDisp validates and converts a byte displacement to a word
// displacement that fits in a signed field of the given width.
func wordDisp(i Instr, disp int64, bits uint) (uint32, error) {
	if disp&3 != 0 {
		return 0, rangeError(i, "unaligned branch displacement", disp)
	}
	w := disp >> 2
	if !fitsSigned(w, bits) {
		return 0, rangeError(i, "branch displacement", disp)
	}
	return uint32(w), nil
}

// Append implements Encoding.
func (e fixedEncoding) Append(dst []byte, i Instr) ([]byte, error) {
	w := bitWriter{pos: 26}
	var op uint32
	switch i.Kind {
	case Nop:
		op = fopNop
	case Ret:
		op = fopRet
	case Trap:
		op = fopTrap
	case Halt:
		op = fopHalt
	case Throw:
		op = fopThrow
	case Mark:
		op = fopMark
	case Syscall:
		if i.Imm < 0 || i.Imm > 255 {
			return dst, rangeError(i, "syscall number", i.Imm)
		}
		op = fopSyscall
		w.put(uint32(i.Imm), 8)
	case MovImm16:
		if i.Imm < 0 || i.Imm > 0xFFFF || i.Shift > 3 {
			return dst, rangeError(i, "movz immediate", i.Imm)
		}
		op = fopMovImm16
		w.put(uint32(i.Rd), 5)
		w.put(uint32(i.Shift), 2)
		w.put(uint32(i.Imm), 16)
	case MovK16:
		if i.Imm < 0 || i.Imm > 0xFFFF || i.Shift > 3 {
			return dst, rangeError(i, "movk immediate", i.Imm)
		}
		op = fopMovK16
		w.put(uint32(i.Rd), 5)
		w.put(uint32(i.Shift), 2)
		w.put(uint32(i.Imm), 16)
	case MovImm:
		// Single-instruction 64-bit immediates do not exist on the
		// fixed-width ISAs; the assembler must synthesise them.
		if i.Imm < 0 || i.Imm > 0xFFFF {
			return dst, rangeError(i, "movimm immediate (use movz/movk pairs)", i.Imm)
		}
		op = fopMovImm16
		w.put(uint32(i.Rd), 5)
		w.put(0, 2)
		w.put(uint32(i.Imm), 16)
	case MovReg:
		op = fopMovReg
		w.put(uint32(i.Rd), 5)
		w.put(uint32(i.Rs1), 5)
	case ALU:
		op = fopALU
		w.put(uint32(i.Op), 4)
		w.put(uint32(i.Rd), 5)
		w.put(uint32(i.Rs1), 5)
		w.put(uint32(i.Rs2), 5)
	case ALUImm:
		if !fitsSigned(i.Imm, 12) {
			return dst, rangeError(i, "immediate", i.Imm)
		}
		op = fopALUImm
		w.put(uint32(i.Op), 4)
		w.put(uint32(i.Rd), 5)
		w.put(uint32(i.Rs1), 5)
		w.put(uint32(i.Imm), 12)
	case AddIS:
		if !fitsSigned(i.Imm, 16) {
			return dst, rangeError(i, "addis immediate", i.Imm)
		}
		op = fopAddIS
		w.put(uint32(i.Rd), 5)
		w.put(uint32(i.Rs1), 5)
		w.put(uint32(i.Imm), 16)
	case AddImm16:
		if !fitsSigned(i.Imm, 16) {
			return dst, rangeError(i, "addi immediate", i.Imm)
		}
		op = fopAddImm16
		w.put(uint32(i.Rd), 5)
		w.put(uint32(i.Rs1), 5)
		w.put(uint32(i.Imm), 16)
	case Load, Store:
		if !fitsSigned(i.Imm, 12) {
			return dst, rangeError(i, "displacement", i.Imm)
		}
		r := i.Rd
		if i.Kind == Store {
			op = fopStore
			r = i.Rs2
		} else if i.Signed {
			op = fopLoadS
		} else {
			op = fopLoad
		}
		w.put(uint32(r), 5)
		w.put(uint32(i.Rs1), 5)
		w.put(uint32(sizeCode(i.Size)), 2)
		w.put(uint32(i.Imm), 12)
	case LoadIdx:
		if i.Imm != 0 {
			return dst, rangeError(i, "loadidx displacement (must be 0)", i.Imm)
		}
		op = fopLoadIdx
		if i.Signed {
			op = fopLoadIdxS
		}
		w.put(uint32(i.Rd), 5)
		w.put(uint32(i.Rs1), 5)
		w.put(uint32(i.Rs2), 5)
		w.put(uint32(sizeCode(i.Size)), 2)
		w.put(uint32(sizeCode(i.Scale)), 2)
	case Lea:
		if !fitsSigned(i.Imm, 21) {
			return dst, rangeError(i, "adr offset", i.Imm)
		}
		op = fopLea
		w.put(uint32(i.Rd), 5)
		w.put(uint32(i.Imm), 21)
	case LeaHi:
		if i.Imm&0xFFF != 0 {
			return dst, rangeError(i, "adrp offset (must be page aligned)", i.Imm)
		}
		pages := i.Imm >> 12
		if !fitsSigned(pages, 21) {
			return dst, rangeError(i, "adrp offset", i.Imm)
		}
		op = fopLeaHi
		w.put(uint32(i.Rd), 5)
		w.put(uint32(pages), 21)
	case LoadPC:
		if !fitsSigned(i.Imm, 19) {
			return dst, rangeError(i, "pc-relative offset", i.Imm)
		}
		op = fopLoadPC
		if i.Signed {
			op = fopLoadPCS
		}
		w.put(uint32(i.Rd), 5)
		w.put(uint32(sizeCode(i.Size)), 2)
		w.put(uint32(i.Imm), 19)
	case Branch, Call:
		d, err := wordDisp(i, i.Imm, e.branchBits())
		if err != nil {
			return dst, err
		}
		op = fopBranch
		if i.Kind == Call {
			op = fopCall
		}
		w.put(d, e.branchBits())
	case BranchCond:
		d, err := wordDisp(i, i.Imm, e.condBits())
		if err != nil {
			return dst, err
		}
		op = fopBranchCond
		w.put(uint32(i.Cond), 3)
		w.put(uint32(i.Rs1), 5)
		w.put(d, e.condBits())
	case CallInd:
		op = fopCallInd
		w.put(uint32(i.Rs1), 5)
	case CallIndMem:
		if !fitsSigned(i.Imm, 12) {
			return dst, rangeError(i, "displacement", i.Imm)
		}
		op = fopCallIndMem
		w.put(uint32(i.Rs1), 5)
		w.put(uint32(i.Imm), 12)
	case JumpInd:
		op = fopJumpInd
		w.put(uint32(i.Rs1), 5)
	case Illegal:
		return append(dst, 0xFF, 0xFF, 0xFF, 0xFF), nil
	default:
		return dst, rangeError(i, "unsupported kind on fixed-width ISA", int64(i.Kind))
	}
	return binary.LittleEndian.AppendUint32(dst, op<<26|w.v), nil
}

// sizeCode maps an access size in bytes to its 2-bit encoding.
func sizeCode(s uint8) uint8 {
	switch s {
	case 1:
		return 0
	case 2:
		return 1
	case 4:
		return 2
	default:
		return 3
	}
}

// sizeFromCode is the inverse of sizeCode.
func sizeFromCode(c uint32) uint8 { return 1 << c }

// Decode implements Encoding.
func (e fixedEncoding) Decode(b []byte, addr uint64) (Instr, error) {
	if len(b) < 4 {
		if len(b) == 0 {
			return Instr{}, ErrShortBuffer
		}
		return Instr{Kind: Illegal, Addr: addr, EncLen: len(b)}, nil
	}
	word := binary.LittleEndian.Uint32(b)
	r := bitReader{v: word, pos: 26}
	i := Instr{Addr: addr, EncLen: 4}
	switch word >> 26 {
	case fopNop:
		i.Kind = Nop
		if word != 0 {
			i.Kind = Illegal // nop with garbage operand bits
		}
	case fopRet:
		i.Kind = Ret
	case fopTrap:
		i.Kind = Trap
	case fopHalt:
		i.Kind = Halt
	case fopThrow:
		i.Kind = Throw
	case fopMark:
		i.Kind = Mark
		if word != fopMark<<26 {
			i.Kind = Illegal // mark with garbage operand bits
		}
	case fopSyscall:
		i.Kind = Syscall
		i.Imm = int64(r.get(8))
	case fopMovImm16:
		i.Kind = MovImm16
		i.Rd = Reg(r.get(5))
		i.Shift = uint8(r.get(2))
		i.Imm = int64(r.get(16))
	case fopMovK16:
		i.Kind = MovK16
		i.Rd = Reg(r.get(5))
		i.Shift = uint8(r.get(2))
		i.Imm = int64(r.get(16))
	case fopMovReg:
		i.Kind = MovReg
		i.Rd = Reg(r.get(5))
		i.Rs1 = Reg(r.get(5))
	case fopALU:
		i.Kind = ALU
		i.Op = ALUOp(r.get(4))
		i.Rd = Reg(r.get(5))
		i.Rs1 = Reg(r.get(5))
		i.Rs2 = Reg(r.get(5))
	case fopALUImm:
		i.Kind = ALUImm
		i.Op = ALUOp(r.get(4))
		i.Rd = Reg(r.get(5))
		i.Rs1 = Reg(r.get(5))
		i.Imm = r.getS(12)
	case fopAddIS:
		i.Kind = AddIS
		i.Rd = Reg(r.get(5))
		i.Rs1 = Reg(r.get(5))
		i.Imm = r.getS(16)
	case fopAddImm16:
		i.Kind = AddImm16
		i.Rd = Reg(r.get(5))
		i.Rs1 = Reg(r.get(5))
		i.Imm = r.getS(16)
	case fopLoad, fopLoadS:
		i.Kind = Load
		i.Signed = word>>26 == fopLoadS
		i.Rd = Reg(r.get(5))
		i.Rs1 = Reg(r.get(5))
		i.Size = sizeFromCode(r.get(2))
		i.Imm = r.getS(12)
	case fopStore:
		i.Kind = Store
		i.Rs2 = Reg(r.get(5))
		i.Rs1 = Reg(r.get(5))
		i.Size = sizeFromCode(r.get(2))
		i.Imm = r.getS(12)
	case fopLoadIdx, fopLoadIdxS:
		i.Kind = LoadIdx
		i.Signed = word>>26 == fopLoadIdxS
		i.Rd = Reg(r.get(5))
		i.Rs1 = Reg(r.get(5))
		i.Rs2 = Reg(r.get(5))
		i.Size = sizeFromCode(r.get(2))
		i.Scale = sizeFromCode(r.get(2))
	case fopLea:
		i.Kind = Lea
		i.Rd = Reg(r.get(5))
		i.Imm = r.getS(21)
	case fopLeaHi:
		i.Kind = LeaHi
		i.Rd = Reg(r.get(5))
		i.Imm = r.getS(21) << 12
	case fopLoadPC, fopLoadPCS:
		i.Kind = LoadPC
		i.Signed = word>>26 == fopLoadPCS
		i.Rd = Reg(r.get(5))
		i.Size = sizeFromCode(r.get(2))
		i.Imm = r.getS(19)
	case fopBranch:
		i.Kind = Branch
		i.Imm = r.getS(e.branchBits()) << 2
	case fopCall:
		i.Kind = Call
		i.Imm = r.getS(e.branchBits()) << 2
	case fopBranchCond:
		i.Kind = BranchCond
		i.Cond = Cond(r.get(3))
		i.Rs1 = Reg(r.get(5))
		i.Imm = r.getS(e.condBits()) << 2
	case fopCallInd:
		i.Kind = CallInd
		i.Rs1 = Reg(r.get(5))
	case fopCallIndMem:
		i.Kind = CallIndMem
		i.Rs1 = Reg(r.get(5))
		i.Imm = r.getS(12)
	case fopJumpInd:
		i.Kind = JumpInd
		i.Rs1 = Reg(r.get(5))
	default:
		i.Kind = Illegal
	}
	if i.Kind != Illegal && !validOperands(i) {
		i = Instr{Kind: Illegal, Addr: addr, EncLen: 4}
	}
	return i, nil
}
