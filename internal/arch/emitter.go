package arch

import "fmt"

// This file defines the per-architecture emission layer of the staged
// patch pipeline. The planner (package core) decides WHAT each relocated
// instruction must do — where its resolved target lives, which expansion
// it grew into when the original encoding's range no longer reached —
// and records that target-neutrally in an EmitItem. The layout stage
// assigns addresses using only ExpandedLen. Only the Emitter knows how
// to turn a laid-out item into bytes, so variable-width X64 and the
// fixed-width ISAs stay behind one interface and emission of one item is
// a pure function of (item, env, arch): two items with equal fields emit
// equal bytes, which is what makes parallel emission byte-identical to a
// serial pass.

// PatchForm says where an item's resolved target lands in the
// instruction.
type PatchForm uint8

// Patch forms. FormPCRel is the zero value: most relocated operands are
// PC-relative (branches, lea, adrp, loadpc).
const (
	FormPCRel   PatchForm = iota // SetTarget (branches, lea, adrp, loadpc)
	FormImmAbs                   // Imm = target (movimm)
	FormImmLo12                  // Imm = target & 0xFFF (add after adrp)
	FormImmHi16                  // Imm = 16-bit chunk selected by Shift (movz/movk)
)

// String names the patch form.
func (f PatchForm) String() string {
	switch f {
	case FormPCRel:
		return "pcrel"
	case FormImmAbs:
		return "imm-abs"
	case FormImmLo12:
		return "imm-lo12"
	case FormImmHi16:
		return "imm-hi16"
	default:
		return fmt.Sprintf("form(%d)", uint8(f))
	}
}

// Expand marks items that no longer fit their original encoding's range
// after relocation and must grow (branch islands, adrp pairs,
// veneer-style far calls through the TAR/ip0 register).
type Expand uint8

// Expansion states.
const (
	ExpandNone Expand = iota
	ExpandCondIsland
	ExpandLeaPair
	ExpandFarBranch
	ExpandFarCall
	// ExpandEmulCall / ExpandEmulCallInd replace a call with the call
	// emulation sequence (original return address materialised and
	// pushed / moved to LR, then a plain branch) — the SRBI/Multiverse
	// stack-unwinding strategy the paper's RA translation displaces.
	ExpandEmulCall
	ExpandEmulCallInd
	// ExpandEmulCallFar is the fixed-width emulated call whose target is
	// out of direct branch range (LR materialisation plus a veneer).
	ExpandEmulCallFar
)

// String names the expansion state.
func (e Expand) String() string {
	switch e {
	case ExpandNone:
		return "none"
	case ExpandCondIsland:
		return "cond-island"
	case ExpandLeaPair:
		return "lea-pair"
	case ExpandFarBranch:
		return "far-branch"
	case ExpandFarCall:
		return "far-call"
	case ExpandEmulCall:
		return "emul-call"
	case ExpandEmulCallInd:
		return "emul-call-ind"
	case ExpandEmulCallFar:
		return "emul-call-far"
	default:
		return fmt.Sprintf("expand(%d)", uint8(e))
	}
}

// EmitEnv carries the binary-wide facts emission depends on besides the
// architecture itself.
type EmitEnv struct {
	// PIE selects position-independent materialisation of absolute
	// values (emulated calls form the pushed return address
	// PC-relatively so it rebases with the image).
	PIE bool
	// TOCValue is the runtime value of the TOC register on PPC; veneers
	// form their targets relative to it.
	TOCValue uint64
}

// EmitItem is one laid-out relocation item, ready for encoding. Every
// field the Emitter consumes is right here: emission never looks at the
// plan, the relocation map, or the binary, so equal items emit equal
// bytes.
type EmitItem struct {
	// Ins is the instruction to emit (for expansions, the seed the
	// sequence grows from).
	Ins Instr
	// HasTarget reports whether the item's operand was re-resolved; when
	// false the instruction is emitted unchanged.
	HasTarget bool
	// Form says where Target lands in the instruction.
	Form PatchForm
	// Target is the fully resolved concrete address (layout has already
	// applied the relocation map, clone placement, and unit starts).
	Target uint64
	// Expand is the item's expansion state after layout's fixpoint.
	Expand Expand
	// NewAddr / NewLen are the layout-assigned address and total encoded
	// length.
	NewAddr uint64
	NewLen  int
	// OrigAddr / OrigLen locate the original instruction (zero for
	// inserted snippet instructions); emulated calls materialise the
	// original return address OrigAddr+OrigLen.
	OrigAddr uint64
	OrigLen  int
}

// Emitter encodes laid-out relocation items for one architecture.
//
// Contract: ExpandedLen must be consistent with Render — for any item
// the encoded length of Render's sequence equals ExpandedLen of its
// (Ins, Expand) — and Render must depend only on its arguments. Layout
// calls ExpandedLen (never Render), emission calls Render; both may be
// called concurrently from multiple goroutines.
type Emitter interface {
	// Arch identifies the emitter's architecture.
	Arch() Arch
	// ExpandedLen returns the encoded length of ins under expansion exp.
	ExpandedLen(env EmitEnv, ins Instr, exp Expand) int
	// Render returns the item's final instruction sequence with resolved
	// displacements and assigned addresses.
	Render(env EmitEnv, it EmitItem) ([]Instr, error)
	// DispatchStub returns the per-function variant-dispatch stub for
	// profile-guided multi-version rewriting: spill the scratch register
	// below the stack pointer, materialise the function's selector cell
	// address (PC-relatively in PIE images, absolutely otherwise), load
	// the selector, and branch to the alternate variant when it is
	// non-zero. Fall-through continues into the default (full) body.
	// Each variant body must begin with VariantRestore so the spilled
	// register is recovered on both paths. The planner assigns targets:
	// the address-forming instruction (Lea/LeaHi) is patched to the cell
	// like a counter snippet, the trailing conditional branch to the
	// alternate variant's entry.
	DispatchStub(env EmitEnv, selCell uint64) []Instr
}

// VariantRestore returns the instruction that recovers the register
// DispatchStub spilled; every variant body starts with it (the spill /
// restore pair keeps dispatch transparent to the interrupted register
// state, the same discipline counter snippets use).
func VariantRestore() Instr {
	return Instr{Kind: Load, Rd: R8, Rs1: SP, Size: 8, Imm: -16}
}

// dispatchStub builds the stub sequence shared by every emitter; only
// the selector-address materialisation differs by architecture, and it
// mirrors the counter snippet's forms exactly.
func dispatchStub(a Arch, env EmitEnv, selCell uint64) []Instr {
	seq := []Instr{{Kind: Store, Rs2: R8, Rs1: SP, Size: 8, Imm: -16}}
	if env.PIE {
		if a == X64 {
			seq = append(seq, Instr{Kind: Lea, Rd: R8, Imm: int64(selCell)})
		} else {
			seq = append(seq,
				Instr{Kind: LeaHi, Rd: R8, Imm: int64(selCell)},
				Instr{Kind: AddImm16, Rd: R8, Rs1: R8, Imm: int64(selCell & 0xFFF)},
			)
		}
	} else {
		if a == X64 {
			seq = append(seq, Instr{Kind: MovImm, Rd: R8, Imm: int64(selCell)})
		} else {
			seq = append(seq,
				Instr{Kind: MovImm16, Rd: R8, Imm: int64(selCell & 0xFFFF)},
				Instr{Kind: MovK16, Rd: R8, Imm: int64((selCell >> 16) & 0xFFFF), Shift: 1},
			)
		}
	}
	return append(seq,
		Instr{Kind: Load, Rd: R8, Rs1: R8, Size: 8},
		Instr{Kind: BranchCond, Cond: NE, Rs1: R8},
	)
}

// EmitterFor returns the emitter for an architecture.
func EmitterFor(a Arch) Emitter {
	if a == X64 {
		return x64Emitter{}
	}
	return fixedEmitter{a: a}
}

// EmitInto renders and encodes one item into the window dst, which must
// be exactly it.NewLen bytes, and returns the number of bytes written.
// Encoding appends into dst[:0:len(dst)]: the capped window can never
// spill into a neighbouring item, because an over-long sequence makes
// append reallocate instead. A sequence that encodes to a different
// length than layout assigned is an internal inconsistency between
// ExpandedLen and Render and is reported as an error; bytes outside the
// window are untouched either way. The ExpandNone case — most items —
// is rendered as a single value without calling Render, so it
// allocates nothing.
func EmitInto(e Emitter, env EmitEnv, it EmitItem, dst []byte) (int, error) {
	enc := ForArch(e.Arch())
	out := dst[:0:len(dst)]
	var err error
	if it.Expand == ExpandNone {
		out, err = appendRendered(enc, out, it, renderForm(it))
	} else {
		var seq []Instr
		if seq, err = e.Render(env, it); err != nil {
			return 0, err
		}
		for _, ins := range seq {
			if out, err = appendRendered(enc, out, it, ins); err != nil {
				break
			}
		}
	}
	if err != nil {
		return 0, err
	}
	if len(out) != it.NewLen || len(out) != len(dst) {
		return 0, fmt.Errorf("arch: %s: item at %#x -> %#x (expand %s, orig %#x) emitted %d bytes, laid out %d",
			e.Arch(), it.NewAddr, it.Target, it.Expand, it.OrigAddr, len(out), it.NewLen)
	}
	return len(out), nil
}

// appendRendered encodes one instruction of the item's rendered sequence.
func appendRendered(enc Encoding, dst []byte, it EmitItem, ins Instr) ([]byte, error) {
	out, err := enc.Append(dst, ins)
	if err != nil {
		return dst, fmt.Errorf("arch: %s: encoding relocated %s (expand %s, at %#x -> %#x, orig %#x): %w",
			enc.Arch(), ins, it.Expand, it.NewAddr, it.Target, it.OrigAddr, err)
	}
	return out, nil
}

// renderForm applies the item's patch form to a single instruction — the
// ExpandNone case shared by every emitter.
func renderForm(it EmitItem) Instr {
	ins := it.Ins
	ins.Addr = it.NewAddr
	switch {
	case !it.HasTarget:
	case it.Form == FormPCRel:
		ins.SetTarget(it.Target)
	case it.Form == FormImmAbs:
		ins.Imm = int64(it.Target)
	case it.Form == FormImmLo12:
		ins.Imm = int64(it.Target & 0xFFF)
	case it.Form == FormImmHi16:
		ins.Imm = int64((it.Target >> (16 * ins.Shift)) & 0xFFFF)
	}
	return ins
}

// renderCondIsland renders bcond.neg over a full-range branch.
func renderCondIsland(a Arch, it EmitItem) []Instr {
	ins := it.Ins
	ins.Addr = it.NewAddr
	condLen := EncLen(a, ins)
	branch := Instr{Kind: Branch, Addr: it.NewAddr + uint64(condLen)}
	branch.SetTarget(it.Target)
	neg := ins
	neg.Cond = ins.Cond.Negate()
	neg.SetTarget(it.NewAddr + uint64(it.NewLen))
	return []Instr{neg, branch}
}

// renderLeaPair renders the adrp-style page/offset pair replacing a
// PC-relative lea whose displacement no longer fits.
func renderLeaPair(it EmitItem) []Instr {
	hi := Instr{Kind: LeaHi, Rd: it.Ins.Rd, Addr: it.NewAddr}
	hi.SetTarget(it.Target)
	lo := Instr{Kind: AddImm16, Rd: it.Ins.Rd, Rs1: it.Ins.Rd, Imm: int64(it.Target & 0xFFF), Addr: it.NewAddr + 4}
	return []Instr{hi, lo}
}

// emulRALen is the length of the X64 instruction materialising the
// original return address in an emulated call: a PC-relative lea in PIE
// (the value must rebase with the image), an absolute movimm otherwise.
func emulRALen(pie bool) int {
	if pie {
		return 6
	}
	return 10
}

// FillIllegal fills a buffer with undecodable bytes, so unreachable
// padding and verification-erased text fault instead of executing
// silently.
func FillIllegal(a Arch, buf []byte) {
	for i := range buf {
		buf[i] = 0xFF
	}
	_ = a
}
