package arch

import "encoding/binary"

// x64Encoding implements the variable-length X64 instruction encoding.
//
// Each instruction starts with a one-byte opcode followed by operand
// bytes; lengths range from 1 byte (nop, ret, trap, halt, throw) to
// 10 bytes (movimm, loadidx). Like real x86-64, the ISA offers two direct
// branch encodings: a 2-byte short form with a ±128-byte range and a
// 5-byte near form with a ±2GB range — the property E9Patch-style
// rewriters and our trampoline placement both revolve around. All
// PC-relative displacements are encoded relative to the start address of
// the instruction.
type x64Encoding struct{}

// X64 opcode bytes. Values mirror familiar x86 opcodes where one exists
// (0x90 nop, 0xC3 ret, 0xCC int3, 0xE8 call, 0xE9/0xEB jmp, 0xF4 hlt).
const (
	xopMovImm     = 0x01
	xopMovReg     = 0x02
	xopALU        = 0x03
	xopALUImm     = 0x04
	xopLoad       = 0x05
	xopStore      = 0x06
	xopLoadIdx    = 0x07
	xopLoadS      = 0x15
	xopLoadIdxS   = 0x17
	xopLoadPCS    = 0x19
	xopLea        = 0x08
	xopLoadPC     = 0x09
	xopSyscall    = 0x0A
	xopThrow      = 0x0B
	xopCallIndMem = 0x0C
	xopBranchCond = 0x0F
	xopMark       = 0x1A
	xopNop        = 0x90
	xopRet        = 0xC3
	xopTrap       = 0xCC
	xopCall       = 0xE8
	xopBranchNear = 0xE9
	xopBranchShrt = 0xEB
	xopHalt       = 0xF4
	xopCallInd    = 0xFD
	xopJumpInd    = 0xFE
)

// Arch implements Encoding.
func (x64Encoding) Arch() Arch { return X64 }

// MaxLen implements Encoding.
func (x64Encoding) MaxLen() int { return 10 }

func le32(dst []byte, v int64) []byte { return binary.LittleEndian.AppendUint32(dst, uint32(v)) }

// Append implements Encoding.
func (e x64Encoding) Append(dst []byte, i Instr) ([]byte, error) {
	switch i.Kind {
	case Nop:
		return append(dst, xopNop), nil
	case Ret:
		return append(dst, xopRet), nil
	case Trap:
		return append(dst, xopTrap), nil
	case Halt:
		return append(dst, xopHalt), nil
	case Throw:
		return append(dst, xopThrow), nil
	case Mark:
		return append(dst, xopMark), nil
	case Syscall:
		if i.Imm < 0 || i.Imm > 255 {
			return dst, rangeError(i, "syscall number", i.Imm)
		}
		return append(dst, xopSyscall, byte(i.Imm)), nil
	case MovImm:
		return binary.LittleEndian.AppendUint64(append(dst, xopMovImm, byte(i.Rd)), uint64(i.Imm)), nil
	case MovReg:
		return append(dst, xopMovReg, byte(i.Rd), byte(i.Rs1)), nil
	case ALU:
		return append(dst, xopALU, byte(i.Op), byte(i.Rd), byte(i.Rs1), byte(i.Rs2)), nil
	case ALUImm:
		if !fitsSigned(i.Imm, 32) {
			return dst, rangeError(i, "immediate", i.Imm)
		}
		return le32(append(dst, xopALUImm, byte(i.Op), byte(i.Rd), byte(i.Rs1)), i.Imm), nil
	case Load:
		if !fitsSigned(i.Imm, 32) {
			return dst, rangeError(i, "displacement", i.Imm)
		}
		op := byte(xopLoad)
		if i.Signed {
			op = xopLoadS
		}
		return le32(append(dst, op, byte(i.Rd), byte(i.Rs1), i.Size), i.Imm), nil
	case Store:
		if !fitsSigned(i.Imm, 32) {
			return dst, rangeError(i, "displacement", i.Imm)
		}
		return le32(append(dst, xopStore, byte(i.Rs2), byte(i.Rs1), i.Size), i.Imm), nil
	case LoadIdx:
		if !fitsSigned(i.Imm, 32) {
			return dst, rangeError(i, "displacement", i.Imm)
		}
		op := byte(xopLoadIdx)
		if i.Signed {
			op = xopLoadIdxS
		}
		return le32(append(dst, op, byte(i.Rd), byte(i.Rs1), byte(i.Rs2), i.Size, i.Scale), i.Imm), nil
	case Lea:
		if !fitsSigned(i.Imm, 32) {
			return dst, rangeError(i, "pc-relative offset", i.Imm)
		}
		return le32(append(dst, xopLea, byte(i.Rd)), i.Imm), nil
	case LoadPC:
		if !fitsSigned(i.Imm, 32) {
			return dst, rangeError(i, "pc-relative offset", i.Imm)
		}
		op := byte(xopLoadPC)
		if i.Signed {
			op = xopLoadPCS
		}
		return le32(append(dst, op, byte(i.Rd), i.Size), i.Imm), nil
	case Branch:
		if i.Short {
			if !fitsSigned(i.Imm, 8) {
				return dst, rangeError(i, "short branch offset", i.Imm)
			}
			return append(dst, xopBranchShrt, byte(int8(i.Imm))), nil
		}
		if !fitsSigned(i.Imm, 32) {
			return dst, rangeError(i, "branch offset", i.Imm)
		}
		return le32(append(dst, xopBranchNear), i.Imm), nil
	case BranchCond:
		if !fitsSigned(i.Imm, 32) {
			return dst, rangeError(i, "branch offset", i.Imm)
		}
		return le32(append(dst, xopBranchCond, byte(i.Cond), byte(i.Rs1)), i.Imm), nil
	case Call:
		if !fitsSigned(i.Imm, 32) {
			return dst, rangeError(i, "call offset", i.Imm)
		}
		return le32(append(dst, xopCall), i.Imm), nil
	case CallInd:
		return append(dst, xopCallInd, byte(i.Rs1)), nil
	case JumpInd:
		return append(dst, xopJumpInd, byte(i.Rs1)), nil
	case CallIndMem:
		if !fitsSigned(i.Imm, 32) {
			return dst, rangeError(i, "displacement", i.Imm)
		}
		return le32(append(dst, xopCallIndMem, byte(i.Rs1)), i.Imm), nil
	case Illegal:
		return append(dst, 0xFF), nil
	default:
		return dst, rangeError(i, "unsupported kind on x64", int64(i.Kind))
	}
}

// Decode implements Encoding.
func (e x64Encoding) Decode(b []byte, addr uint64) (Instr, error) {
	if len(b) == 0 {
		return Instr{}, ErrShortBuffer
	}
	ill := Instr{Kind: Illegal, Addr: addr, EncLen: 1}
	need := func(n int) bool { return len(b) >= n }
	get32 := func(off int) int64 { return int64(int32(binary.LittleEndian.Uint32(b[off:]))) }
	var i Instr
	i.Addr = addr
	switch b[0] {
	case xopNop:
		i.Kind, i.EncLen = Nop, 1
	case xopRet:
		i.Kind, i.EncLen = Ret, 1
	case xopTrap:
		i.Kind, i.EncLen = Trap, 1
	case xopHalt:
		i.Kind, i.EncLen = Halt, 1
	case xopThrow:
		i.Kind, i.EncLen = Throw, 1
	case xopMark:
		i.Kind, i.EncLen = Mark, 1
	case xopSyscall:
		if !need(2) {
			return ill, nil
		}
		i.Kind, i.Imm, i.EncLen = Syscall, int64(b[1]), 2
	case xopMovImm:
		if !need(10) {
			return ill, nil
		}
		i.Kind, i.Rd, i.EncLen = MovImm, Reg(b[1]), 10
		i.Imm = int64(binary.LittleEndian.Uint64(b[2:]))
	case xopMovReg:
		if !need(3) {
			return ill, nil
		}
		i.Kind, i.Rd, i.Rs1, i.EncLen = MovReg, Reg(b[1]), Reg(b[2]), 3
	case xopALU:
		if !need(5) {
			return ill, nil
		}
		i.Kind, i.Op, i.Rd, i.Rs1, i.Rs2, i.EncLen = ALU, ALUOp(b[1]), Reg(b[2]), Reg(b[3]), Reg(b[4]), 5
	case xopALUImm:
		if !need(8) {
			return ill, nil
		}
		i.Kind, i.Op, i.Rd, i.Rs1, i.Imm, i.EncLen = ALUImm, ALUOp(b[1]), Reg(b[2]), Reg(b[3]), get32(4), 8
	case xopLoad, xopLoadS:
		if !need(8) {
			return ill, nil
		}
		i.Kind, i.Rd, i.Rs1, i.Size, i.Imm, i.EncLen = Load, Reg(b[1]), Reg(b[2]), b[3], get32(4), 8
		i.Signed = b[0] == xopLoadS
	case xopStore:
		if !need(8) {
			return ill, nil
		}
		i.Kind, i.Rs2, i.Rs1, i.Size, i.Imm, i.EncLen = Store, Reg(b[1]), Reg(b[2]), b[3], get32(4), 8
	case xopLoadIdx, xopLoadIdxS:
		if !need(10) {
			return ill, nil
		}
		i.Kind, i.Rd, i.Rs1, i.Rs2, i.Size, i.Scale, i.Imm, i.EncLen =
			LoadIdx, Reg(b[1]), Reg(b[2]), Reg(b[3]), b[4], b[5], get32(6), 10
		i.Signed = b[0] == xopLoadIdxS
	case xopLea:
		if !need(6) {
			return ill, nil
		}
		i.Kind, i.Rd, i.Imm, i.EncLen = Lea, Reg(b[1]), get32(2), 6
	case xopLoadPC, xopLoadPCS:
		if !need(7) {
			return ill, nil
		}
		i.Kind, i.Rd, i.Size, i.Imm, i.EncLen = LoadPC, Reg(b[1]), b[2], get32(3), 7
		i.Signed = b[0] == xopLoadPCS
	case xopBranchNear:
		if !need(5) {
			return ill, nil
		}
		i.Kind, i.Imm, i.EncLen = Branch, get32(1), 5
	case xopBranchShrt:
		if !need(2) {
			return ill, nil
		}
		i.Kind, i.Imm, i.Short, i.EncLen = Branch, int64(int8(b[1])), true, 2
	case xopBranchCond:
		if !need(7) {
			return ill, nil
		}
		i.Kind, i.Cond, i.Rs1, i.Imm, i.EncLen = BranchCond, Cond(b[1]), Reg(b[2]), get32(3), 7
	case xopCall:
		if !need(5) {
			return ill, nil
		}
		i.Kind, i.Imm, i.EncLen = Call, get32(1), 5
	case xopCallInd:
		if !need(2) {
			return ill, nil
		}
		i.Kind, i.Rs1, i.EncLen = CallInd, Reg(b[1]), 2
	case xopCallIndMem:
		if !need(6) {
			return ill, nil
		}
		i.Kind, i.Rs1, i.Imm, i.EncLen = CallIndMem, Reg(b[1]), get32(2), 6
	case xopJumpInd:
		if !need(2) {
			return ill, nil
		}
		i.Kind, i.Rs1, i.EncLen = JumpInd, Reg(b[1]), 2
	default:
		return ill, nil
	}
	if !validOperands(i) {
		return ill, nil
	}
	return i, nil
}

// validOperands rejects decoded instructions whose register or field
// values are architecturally meaningless, so random data mostly decodes
// to Illegal rather than to plausible instructions.
func validOperands(i Instr) bool {
	okReg := func(r Reg) bool { return r.Valid() }
	switch i.Kind {
	case MovImm, Lea, LeaHi:
		return okReg(i.Rd)
	case MovImm16, MovK16:
		return okReg(i.Rd) && i.Shift < 4
	case MovReg:
		return okReg(i.Rd) && okReg(i.Rs1)
	case ALU:
		return i.Op <= Shr && okReg(i.Rd) && okReg(i.Rs1) && okReg(i.Rs2)
	case ALUImm:
		return i.Op <= Shr && okReg(i.Rd) && okReg(i.Rs1)
	case AddIS, AddImm16:
		return okReg(i.Rd) && okReg(i.Rs1)
	case Load, LoadPC:
		return okReg(i.Rd) && okSize(i.Size) && (i.Kind == LoadPC || okReg(i.Rs1))
	case Store:
		return okReg(i.Rs1) && okReg(i.Rs2) && okSize(i.Size)
	case LoadIdx:
		return okReg(i.Rd) && okReg(i.Rs1) && okReg(i.Rs2) && okSize(i.Size) && okSize(i.Scale)
	case BranchCond:
		return i.Cond <= LE && okReg(i.Rs1)
	case CallInd, JumpInd, CallIndMem:
		return okReg(i.Rs1)
	default:
		return true
	}
}

func okSize(s uint8) bool { return s == 1 || s == 2 || s == 4 || s == 8 }
