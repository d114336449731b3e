package arch

import "fmt"

// x64Emitter emits laid-out items for the variable-width ISA. The far
// veneer forms never arise here — an X64 displacement that does not fit
// the ±2GB PC-relative forms is a layout error, not an expansion — so
// only the emulated-call family and the island/pair forms render.
type x64Emitter struct{}

// Arch identifies the emitter's architecture.
func (x64Emitter) Arch() Arch { return X64 }

// DispatchStub returns the variant-dispatch stub sequence.
func (x64Emitter) DispatchStub(env EmitEnv, selCell uint64) []Instr {
	return dispatchStub(X64, env, selCell)
}

// ExpandedLen returns the encoded length of ins under expansion exp.
func (x64Emitter) ExpandedLen(env EmitEnv, ins Instr, exp Expand) int {
	base := EncLen(X64, ins)
	switch exp {
	case ExpandNone:
		return base
	case ExpandCondIsland:
		return base + EncLen(X64, Instr{Kind: Branch})
	case ExpandLeaPair:
		return EncLen(X64, Instr{Kind: LeaHi}) + EncLen(X64, Instr{Kind: ALUImm})
	case ExpandFarBranch, ExpandFarCall:
		return 3 * 4
	case ExpandEmulCall:
		return 8 + emulRALen(env.PIE) + 8 + 8 + 8 + 5
	case ExpandEmulCallInd:
		return 8 + emulRALen(env.PIE) + 8 + 8 + 8 + 2
	case ExpandEmulCallFar:
		return 5 * 4
	default:
		return base
	}
}

// Render returns the item's final instruction sequence.
func (e x64Emitter) Render(env EmitEnv, it EmitItem) ([]Instr, error) {
	switch it.Expand {
	case ExpandNone:
		return []Instr{renderForm(it)}, nil
	case ExpandCondIsland:
		return renderCondIsland(X64, it), nil
	case ExpandLeaPair:
		return renderLeaPair(it), nil
	case ExpandEmulCall, ExpandEmulCallInd:
		return e.emulatedCall(env, it), nil
	}
	return nil, fmt.Errorf("arch: x64: unsupported expansion %s at %#x -> %#x (orig %#x)",
		it.Expand, it.NewAddr, it.Target, it.OrigAddr)
}

// emulatedCall renders the call emulation sequence: the ORIGINAL return
// address is pushed, then control branches to the target. The callee's
// eventual return therefore lands at the original fall-through in
// .text, where a trampoline must wait.
func (x64Emitter) emulatedCall(env EmitEnv, it EmitItem) []Instr {
	origRA := it.OrigAddr + uint64(it.OrigLen)
	scratch := R8
	if it.Ins.Kind == CallInd && it.Ins.Rs1 == R8 {
		scratch = R9
	}
	mat := Instr{Kind: MovImm, Rd: scratch, Imm: int64(origRA)}
	if env.PIE {
		// The pushed value must follow the load base: form it
		// PC-relatively (the displacement to the ORIGINAL return
		// address is a link-time constant).
		mat = Instr{Kind: Lea, Rd: scratch}
	}
	seq := []Instr{
		{Kind: Store, Rs2: scratch, Rs1: SP, Size: 8, Imm: -16},
		mat,
		{Kind: ALUImm, Op: Sub, Rd: SP, Rs1: SP, Imm: 8},
		{Kind: Store, Rs2: scratch, Rs1: SP, Size: 8, Imm: 0},
		{Kind: Load, Rd: scratch, Rs1: SP, Size: 8, Imm: -8},
	}
	if it.Ins.Kind == CallInd {
		seq = append(seq, Instr{Kind: JumpInd, Rs1: it.Ins.Rs1})
	} else {
		seq = append(seq, Instr{Kind: Branch})
	}
	addr := it.NewAddr
	for i := range seq {
		seq[i].Addr = addr
		addr += uint64(EncLen(X64, seq[i]))
	}
	if env.PIE {
		seq[1].SetTarget(origRA)
	}
	if it.Ins.Kind != CallInd {
		seq[len(seq)-1].SetTarget(it.Target)
	}
	return seq
}
