package arch

import "fmt"

// fixedEmitter emits laid-out items for the fixed-width ISAs (PPC and
// A64). Every expansion is a whole number of 4-byte words; far transfers
// go through the TAR/ip0 veneer.
type fixedEmitter struct {
	a Arch
}

// Arch identifies the emitter's architecture.
func (e fixedEmitter) Arch() Arch { return e.a }

// DispatchStub returns the variant-dispatch stub sequence.
func (e fixedEmitter) DispatchStub(env EmitEnv, selCell uint64) []Instr {
	return dispatchStub(e.a, env, selCell)
}

// ExpandedLen returns the encoded length of ins under expansion exp.
func (e fixedEmitter) ExpandedLen(env EmitEnv, ins Instr, exp Expand) int {
	base := EncLen(e.a, ins)
	switch exp {
	case ExpandNone:
		return base
	case ExpandCondIsland:
		return base + EncLen(e.a, Instr{Kind: Branch})
	case ExpandLeaPair:
		return EncLen(e.a, Instr{Kind: LeaHi}) + EncLen(e.a, Instr{Kind: ALUImm})
	case ExpandFarBranch, ExpandFarCall:
		return 3 * 4 // adris/adrp + add + indirect branch
	case ExpandEmulCall, ExpandEmulCallInd:
		return 3 * 4
	case ExpandEmulCallFar:
		return 5 * 4
	default:
		return base
	}
}

// Render returns the item's final instruction sequence.
func (e fixedEmitter) Render(env EmitEnv, it EmitItem) ([]Instr, error) {
	switch it.Expand {
	case ExpandNone:
		return []Instr{renderForm(it)}, nil
	case ExpandCondIsland:
		return renderCondIsland(e.a, it), nil
	case ExpandLeaPair:
		return renderLeaPair(it), nil
	case ExpandFarBranch, ExpandFarCall:
		return e.veneer(env, it.NewAddr, it.Expand, it.Target)
	case ExpandEmulCall, ExpandEmulCallInd, ExpandEmulCallFar:
		return e.emulatedCall(env, it)
	}
	return nil, fmt.Errorf("arch: %s: unsupported expansion %s at %#x -> %#x (orig %#x)",
		e.a, it.Expand, it.NewAddr, it.Target, it.OrigAddr)
}

// emulatedCall renders the fixed-width call emulation: the ORIGINAL
// return address is materialised into LR, then control branches to the
// target (through a veneer when it is out of direct branch range).
func (e fixedEmitter) emulatedCall(env EmitEnv, it EmitItem) ([]Instr, error) {
	origRA := it.OrigAddr + uint64(it.OrigLen)
	seq := []Instr{
		{Kind: MovImm16, Rd: LR, Imm: int64(origRA & 0xFFFF)},
		{Kind: MovK16, Rd: LR, Imm: int64((origRA >> 16) & 0xFFFF), Shift: 1},
	}
	if env.PIE {
		hi := Instr{Kind: LeaHi, Rd: LR, Addr: it.NewAddr}
		hi.SetTarget(origRA)
		seq = []Instr{
			hi,
			{Kind: AddImm16, Rd: LR, Rs1: LR, Imm: int64(origRA & 0xFFF)},
		}
	}
	if it.Expand == ExpandEmulCallFar {
		tail, err := e.veneer(env, it.NewAddr+8, ExpandFarBranch, it.Target)
		if err != nil {
			return nil, err
		}
		seq = append(seq, tail...)
	} else if it.Ins.Kind == CallInd {
		seq = append(seq, Instr{Kind: JumpInd, Rs1: it.Ins.Rs1})
	} else {
		br := Instr{Kind: Branch, Addr: it.NewAddr + 8}
		br.SetTarget(it.Target)
		seq = append(seq, br)
	}
	addr := it.NewAddr
	for i := range seq {
		seq[i].Addr = addr
		addr += 4
	}
	return seq, nil
}

// veneer forms a far transfer through the TAR register: TOC-relative
// address formation on PPC (addis/addi), page-relative on A64 (the
// ip0-style veneer), then an indirect branch or call.
func (e fixedEmitter) veneer(env EmitEnv, newAddr uint64, exp Expand, t uint64) ([]Instr, error) {
	var seq []Instr
	if e.a == PPC {
		off := int64(t - env.TOCValue)
		lo := int64(int16(off))
		hi := (off - lo) >> 16
		if hi < -(1<<15) || hi >= 1<<15 {
			return nil, fmt.Errorf("arch: %s: %s veneer at %#x: target %#x beyond ±2GB of TOC %#x",
				e.a, exp, newAddr, t, env.TOCValue)
		}
		seq = []Instr{
			{Kind: AddIS, Rd: TAR, Rs1: TOCReg, Imm: hi},
			{Kind: AddImm16, Rd: TAR, Rs1: TAR, Imm: lo},
		}
	} else {
		hi := Instr{Kind: LeaHi, Rd: TAR, Addr: newAddr}
		hi.SetTarget(t)
		seq = []Instr{
			hi,
			{Kind: AddImm16, Rd: TAR, Rs1: TAR, Imm: int64(t & 0xFFF)},
		}
	}
	kind := JumpInd
	if exp == ExpandFarCall {
		kind = CallInd
	}
	seq = append(seq, Instr{Kind: kind, Rs1: TAR})
	addr := newAddr
	for i := range seq {
		seq[i].Addr = addr
		addr += 4
	}
	return seq, nil
}
