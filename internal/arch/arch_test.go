package arch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// sampleInstrs returns a representative instruction of every kind valid on
// the given architecture.
func sampleInstrs(a Arch) []Instr {
	common := []Instr{
		{Kind: Nop},
		{Kind: MovReg, Rd: R3, Rs1: R7},
		{Kind: ALU, Op: Add, Rd: R1, Rs1: R2, Rs2: R3},
		{Kind: ALU, Op: Xor, Rd: R9, Rs1: R9, Rs2: R9},
		{Kind: ALUImm, Op: Sub, Rd: SP, Rs1: SP, Imm: 64},
		{Kind: ALUImm, Op: Shl, Rd: R4, Rs1: R4, Imm: 3},
		{Kind: Load, Rd: R1, Rs1: SP, Size: 8, Imm: 16},
		{Kind: Load, Rd: R2, Rs1: R3, Size: 1, Imm: -4},
		{Kind: Store, Rs2: R1, Rs1: SP, Size: 8, Imm: -8},
		{Kind: LoadIdx, Rd: R1, Rs1: R2, Rs2: R3, Size: 4, Scale: 4},
		{Kind: LoadIdx, Rd: R1, Rs1: R2, Rs2: R3, Size: 1, Scale: 1},
		{Kind: Lea, Rd: R5, Imm: 4096},
		{Kind: Branch, Imm: 64},
		{Kind: Branch, Imm: -128},
		{Kind: BranchCond, Cond: NE, Rs1: R1, Imm: 32},
		{Kind: BranchCond, Cond: LE, Rs1: R2, Imm: -64},
		{Kind: Call, Imm: 1024},
		{Kind: CallInd, Rs1: R8},
		{Kind: CallIndMem, Rs1: SP, Imm: 8},
		{Kind: JumpInd, Rs1: R9},
		{Kind: Ret},
		{Kind: Trap},
		{Kind: Halt},
		{Kind: Syscall, Imm: 3},
		{Kind: Throw},
	}
	if a == X64 {
		return append(common,
			Instr{Kind: MovImm, Rd: R1, Imm: -1},
			Instr{Kind: MovImm, Rd: R2, Imm: 0x1122334455667788},
			Instr{Kind: LoadPC, Rd: R3, Size: 8, Imm: 0x1000},
			Instr{Kind: Branch, Imm: 100, Short: true},
			Instr{Kind: Branch, Imm: -100, Short: true},
		)
	}
	return append(common,
		Instr{Kind: MovImm16, Rd: R1, Imm: 0xBEEF, Shift: 1},
		Instr{Kind: MovK16, Rd: R1, Imm: 0xDEAD, Shift: 3},
		Instr{Kind: AddIS, Rd: R4, Rs1: TOCReg, Imm: -32768},
		Instr{Kind: AddImm16, Rd: R4, Rs1: R4, Imm: 32767},
		Instr{Kind: LeaHi, Rd: R5, Imm: -(int64(1) << 20 << 12)},
		Instr{Kind: LoadPC, Rd: R3, Size: 4, Imm: 0x2000},
		Instr{Kind: MovReg, Rd: TAR, Rs1: R6},
		Instr{Kind: JumpInd, Rs1: TAR},
	)
}

// normalize clears fields the decoder cannot recover exactly but that do
// not affect semantics, so round-trip comparison is meaningful.
func normalize(i Instr, a Arch) Instr {
	i.Addr = 0
	i.EncLen = 0
	if a != X64 {
		i.Short = false
		if i.Kind == MovImm {
			i.Kind = MovImm16 // small movimm aliases to movz
		}
	}
	return i
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, a := range All() {
		enc := ForArch(a)
		for _, ins := range sampleInstrs(a) {
			b, err := enc.Append(nil, ins)
			if err != nil {
				t.Fatalf("%s: encode %q: %v", a, ins, err)
			}
			// Fixed-width encodings are exactly MaxLen bytes long.
			minLen := 1
			if a.FixedWidth() {
				minLen = enc.MaxLen()
			}
			if len(b) < minLen || len(b) > enc.MaxLen() {
				t.Fatalf("%s: %q encoded to %d bytes, outside [%d,%d]", a, ins, len(b), minLen, enc.MaxLen())
			}
			got, err := enc.Decode(b, 0)
			if err != nil {
				t.Fatalf("%s: decode %q: %v", a, ins, err)
			}
			if got.EncLen != len(b) {
				t.Errorf("%s: %q: EncLen = %d, want %d", a, ins, got.EncLen, len(b))
			}
			if normalize(got, a) != normalize(ins, a) {
				t.Errorf("%s: round trip %q -> % x -> %q", a, ins, b, got)
			}
		}
	}
}

func TestFixedWidthAlwaysFourBytes(t *testing.T) {
	for _, a := range []Arch{PPC, A64} {
		enc := ForArch(a)
		for _, ins := range sampleInstrs(a) {
			b, err := enc.Append(nil, ins)
			if err != nil {
				t.Fatalf("%s: %v", a, err)
			}
			if len(b) != 4 {
				t.Errorf("%s: %q encoded to %d bytes, want 4", a, ins, len(b))
			}
		}
	}
}

func TestDecodeGarbageIsIllegalNotError(t *testing.T) {
	for _, a := range All() {
		enc := ForArch(a)
		got, err := enc.Decode([]byte{0xFF, 0xFF, 0xFF, 0xFF}, 0x1000)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if got.Kind != Illegal {
			t.Errorf("%s: decoded garbage as %q", a, got)
		}
		if got.EncLen < 1 {
			t.Errorf("%s: illegal decode consumed %d bytes", a, got.EncLen)
		}
		if _, err := enc.Decode(nil, 0); err != ErrShortBuffer {
			t.Errorf("%s: empty decode error = %v, want ErrShortBuffer", a, err)
		}
	}
}

func TestBranchRangeLimits(t *testing.T) {
	tests := []struct {
		arch Arch
		kind Kind
		in   int64 // encodable displacement
		out  int64 // just beyond the range
	}{
		{X64, Branch, 1<<31 - 1, 1 << 31},
		{PPC, Branch, (1<<23 - 1) * 4, 1 << 25},
		{A64, Branch, (1<<25 - 1) * 4, 1 << 27},
		{PPC, BranchCond, (1<<13 - 1) * 4, 1 << 15},
		{A64, BranchCond, (1<<17 - 1) * 4, 1 << 19},
	}
	for _, tc := range tests {
		enc := ForArch(tc.arch)
		ins := Instr{Kind: tc.kind, Cond: NE, Rs1: R1, Imm: tc.in}
		if _, err := enc.Append(nil, ins); err != nil {
			t.Errorf("%s %s: in-range %d rejected: %v", tc.arch, tc.kind, tc.in, err)
		}
		ins.Imm = tc.out
		if _, err := enc.Append(nil, ins); err == nil {
			t.Errorf("%s %s: out-of-range %d accepted", tc.arch, tc.kind, tc.out)
		}
	}
	if got := DirectBranchRange(PPC); got != (1<<23-1)*4 {
		t.Errorf("DirectBranchRange(PPC) = %d (~%dMB), want ±32MB", got, got>>20)
	}
	if got := DirectBranchRange(A64); got != (1<<25-1)*4 {
		t.Errorf("DirectBranchRange(A64) = %d (~%dMB), want ±128MB", got, got>>20)
	}
	if ShortBranchRange(X64) != 127 {
		t.Errorf("ShortBranchRange(X64) = %d, want 127", ShortBranchRange(X64))
	}
}

func TestUnalignedFixedBranchRejected(t *testing.T) {
	for _, a := range []Arch{PPC, A64} {
		if _, err := ForArch(a).Append(nil, Instr{Kind: Branch, Imm: 6}); err == nil {
			t.Errorf("%s: unaligned branch displacement accepted", a)
		}
	}
}

func TestTargetAndSetTarget(t *testing.T) {
	i := Instr{Kind: Branch, Addr: 0x1000, Imm: 0x40}
	if tgt, ok := i.Target(); !ok || tgt != 0x1040 {
		t.Errorf("Target = %#x, %v", tgt, ok)
	}
	i.SetTarget(0x2000)
	if tgt, _ := i.Target(); tgt != 0x2000 {
		t.Errorf("after SetTarget, Target = %#x", tgt)
	}
	hi := Instr{Kind: LeaHi, Addr: 0x1234}
	hi.SetTarget(0x9000)
	if tgt, _ := hi.Target(); tgt != 0x9000 {
		t.Errorf("LeaHi SetTarget: Target = %#x", tgt)
	}
	if _, ok := (Instr{Kind: Ret}).Target(); ok {
		t.Error("Ret claims a PC-relative target")
	}
}

func TestCondNegateAndHolds(t *testing.T) {
	vals := []int64{-5, -1, 0, 1, 7}
	for c := EQ; c <= LE; c++ {
		n := c.Negate()
		for _, v := range vals {
			if c.Holds(v) == n.Holds(v) {
				t.Errorf("cond %s and negation %s agree on %d", c, n, v)
			}
		}
		if n.Negate() != c {
			t.Errorf("double negation of %s = %s", c, n.Negate())
		}
	}
}

func TestShortTrampoline(t *testing.T) {
	for _, a := range All() {
		from := uint64(0x10000)
		tr, ok := NewShortTrampoline(a, from, from+uint64(ShortBranchRange(a))&^3)
		if !ok {
			t.Fatalf("%s: in-range short trampoline rejected", a)
		}
		if tr.Len != ShortTrampolineLen(a) {
			t.Errorf("%s: short trampoline len %d, want %d", a, tr.Len, ShortTrampolineLen(a))
		}
		if _, err := tr.Encode(a); err != nil {
			t.Errorf("%s: encode short trampoline: %v", a, err)
		}
		if _, ok := NewShortTrampoline(a, from, from+uint64(ShortBranchRange(a))+8); ok {
			t.Errorf("%s: out-of-range short trampoline accepted", a)
		}
	}
	// Table 2: the x64 short branch is exactly 2 bytes with ±128B range.
	if _, ok := NewShortTrampoline(X64, 0x1000, 0x1000+127); !ok {
		t.Error("x64: +127 byte short branch rejected")
	}
	if _, ok := NewShortTrampoline(X64, 0x1000, 0x1000-128); !ok {
		t.Error("x64: -128 byte short branch rejected")
	}
}

func TestLongTrampolineLengthsMatchTable2(t *testing.T) {
	// x64: 5 bytes. ppc: 4 instructions. a64: 3 instructions.
	toc := uint64(0x10008000)
	tr, ok := NewLongTrampoline(X64, 0x1000, 0x40001000, R6, 0)
	if !ok || tr.Len != 5 || len(tr.Instrs) != 1 {
		t.Errorf("x64 long trampoline: ok=%v len=%d instrs=%d, want 5 bytes / 1 instr", ok, tr.Len, len(tr.Instrs))
	}
	tr, ok = NewLongTrampoline(PPC, 0x1000, 0x40001000, R6, toc)
	if !ok || len(tr.Instrs) != 4 {
		t.Fatalf("ppc long trampoline: ok=%v instrs=%d, want 4 instructions", ok, len(tr.Instrs))
	}
	wantKinds := []Kind{AddIS, AddImm16, MovReg, JumpInd}
	for k, ins := range tr.Instrs {
		if ins.Kind != wantKinds[k] {
			t.Errorf("ppc long trampoline instr %d = %s, want %s", k, ins.Kind, wantKinds[k])
		}
	}
	if tr.Instrs[2].Rd != TAR || tr.Instrs[3].Rs1 != TAR {
		t.Error("ppc long trampoline must branch through the TAR register")
	}
	tr, ok = NewLongTrampoline(A64, 0x1000, 0x40001000, R6, 0)
	if !ok || len(tr.Instrs) != 3 {
		t.Fatalf("a64 long trampoline: ok=%v instrs=%d, want 3 instructions", ok, len(tr.Instrs))
	}
	if tr.Instrs[0].Kind != LeaHi || tr.Instrs[2].Kind != JumpInd {
		t.Error("a64 long trampoline must be adrp/add/br")
	}
}

func TestPPCLongTrampolineComputesTarget(t *testing.T) {
	// Verify the addis/addi decomposition reconstructs the target for
	// positive and negative TOC-relative offsets.
	for _, to := range []uint64{0x10008000 + 0x7FFF0000, 0x10008000 - 0x1234, 0x10008000 + 0x12345} {
		toc := uint64(0x10008000)
		tr, ok := NewLongTrampoline(PPC, 0x1000, to, R7, toc)
		if !ok {
			t.Fatalf("rejected target %#x", to)
		}
		hi, lo := tr.Instrs[0].Imm, tr.Instrs[1].Imm
		got := toc + uint64(hi<<16) + uint64(lo)
		if got != to {
			t.Errorf("toc=%#x hi=%d lo=%d reconstructs %#x, want %#x", toc, hi, lo, got, to)
		}
	}
}

func TestPPCSpillVariantWhenNoScratch(t *testing.T) {
	tr, ok := NewLongTrampoline(PPC, 0x1000, 0x40000000, NoReg, 0x10008000)
	if !ok {
		t.Fatal("spill variant rejected")
	}
	if tr.Class != TrampLongSpill || len(tr.Instrs) != 6 {
		t.Errorf("class=%s instrs=%d, want long+spill with 6 instructions", tr.Class, len(tr.Instrs))
	}
	if tr.Instrs[0].Kind != Store || tr.Instrs[4].Kind != Load {
		t.Error("spill variant must save and restore the scratch register")
	}
}

func TestA64NoScratchFallsToTrap(t *testing.T) {
	if _, ok := NewLongTrampoline(A64, 0x1000, 0x40000000, NoReg, 0); ok {
		t.Error("a64 long trampoline without scratch register must be rejected (trap fallback)")
	}
}

func TestTrapTrampolineAlwaysFits(t *testing.T) {
	for _, a := range All() {
		tr := NewTrapTrampoline(a, 0x1000, 0xFFFFFFFF0000)
		if tr.Len != TrapTrampolineLen(a) {
			t.Errorf("%s: trap trampoline len %d", a, tr.Len)
		}
		b, err := tr.Encode(a)
		if err != nil || len(b) != tr.Len {
			t.Errorf("%s: trap encode: %v", a, err)
		}
	}
}

func TestTrampolinesArePositionIndependent(t *testing.T) {
	// Encoding the same logical trampoline at two different addresses
	// with targets shifted by the same delta yields identical bytes for
	// PC-relative forms (X64, A64) — the property that makes them work
	// in shared libraries and PIEs.
	for _, a := range []Arch{X64, A64} {
		t1, ok1 := NewLongTrampoline(a, 0x10000, 0x5000000, R6, 0)
		t2, ok2 := NewLongTrampoline(a, 0x90000, 0x5080000, R6, 0)
		if !ok1 || !ok2 {
			t.Fatalf("%s: trampolines rejected", a)
		}
		b1, err1 := t1.Encode(a)
		b2, err2 := t2.Encode(a)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: encode: %v %v", a, err1, err2)
		}
		if string(b1) != string(b2) {
			t.Errorf("%s: long trampoline is not position independent: % x vs % x", a, b1, b2)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	rows := Table2()
	if len(rows) != 6 {
		t.Fatalf("Table2 has %d rows, want 6", len(rows))
	}
	perArch := map[Arch]int{}
	for _, r := range rows {
		perArch[r.Arch]++
	}
	for _, a := range All() {
		if perArch[a] != 2 {
			t.Errorf("%s has %d trampoline rows, want 2", a, perArch[a])
		}
	}
}

func TestRegSetQuick(t *testing.T) {
	f := func(rs []uint8) bool {
		var s RegSet
		added := map[Reg]bool{}
		for _, v := range rs {
			r := Reg(v % NumRegs)
			s = s.Add(r)
			added[r] = true
		}
		for r := Reg(0); r < NumRegs; r++ {
			if s.Has(r) != added[r] {
				return false
			}
		}
		return s.Count() == len(added)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegSetOps(t *testing.T) {
	s := AllGP()
	if s.Count() != NumGPRegs {
		t.Errorf("AllGP count = %d", s.Count())
	}
	if s.Has(LR) || s.Has(TAR) {
		t.Error("AllGP contains special registers")
	}
	s = s.Remove(R3)
	if s.Has(R3) || s.Count() != NumGPRegs-1 {
		t.Error("Remove failed")
	}
	u := s.Union(RegSet(0).Add(LR))
	if !u.Has(LR) || !u.Has(R0) {
		t.Error("Union failed")
	}
	if m := u.Minus(AllGP()); !m.Has(LR) || m.Has(R0) {
		t.Error("Minus failed")
	}
}

func TestDefsUses(t *testing.T) {
	tests := []struct {
		a        Arch
		i        Instr
		wantDef  Reg
		wantUse  Reg
		defOther Reg // register that must NOT be defined
	}{
		{X64, Instr{Kind: ALU, Op: Add, Rd: R1, Rs1: R2, Rs2: R3}, R1, R2, R2},
		{X64, Instr{Kind: Store, Rs2: R4, Rs1: SP, Size: 8}, NoReg, R4, R4},
		{PPC, Instr{Kind: Call, Imm: 4}, LR, NoReg, R0},
		{A64, Instr{Kind: Ret}, NoReg, LR, LR},
		{X64, Instr{Kind: Ret}, SP, SP, LR},
		{PPC, Instr{Kind: MovK16, Rd: R5, Imm: 1}, R5, R5, R6},
	}
	for _, tc := range tests {
		defs, uses := tc.i.Defs(tc.a), tc.i.Uses(tc.a)
		if tc.wantDef != NoReg && !defs.Has(tc.wantDef) {
			t.Errorf("%s %q: defs %v missing %s", tc.a, tc.i, defs, tc.wantDef)
		}
		if tc.wantUse != NoReg && !uses.Has(tc.wantUse) {
			t.Errorf("%s %q: uses %v missing %s", tc.a, tc.i, uses, tc.wantUse)
		}
		if tc.defOther != tc.wantDef && defs.Has(tc.defOther) {
			t.Errorf("%s %q: defs %v wrongly contains %s", tc.a, tc.i, defs, tc.defOther)
		}
	}
}

func TestDecodeAllRecoversStream(t *testing.T) {
	for _, a := range All() {
		enc := ForArch(a)
		var stream []byte
		ins := sampleInstrs(a)
		for _, i := range ins {
			b, err := enc.Append(nil, i)
			if err != nil {
				t.Fatal(err)
			}
			stream = append(stream, b...)
		}
		got := DecodeAll(a, stream, 0x4000)
		if len(got) != len(ins) {
			t.Fatalf("%s: decoded %d instructions, want %d", a, len(got), len(ins))
		}
		addr := uint64(0x4000)
		for k, g := range got {
			if g.Addr != addr {
				t.Errorf("%s: instr %d addr %#x, want %#x", a, k, g.Addr, addr)
			}
			addr += uint64(g.EncLen)
		}
	}
}

func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, a := range All() {
		enc := ForArch(a)
		for trial := 0; trial < 2000; trial++ {
			b := make([]byte, 1+rng.Intn(12))
			rng.Read(b)
			ins, err := enc.Decode(b, 0)
			if err == nil && ins.EncLen < 1 {
				t.Fatalf("%s: decode consumed %d bytes", a, ins.EncLen)
			}
		}
	}
}

func TestInstrPredicates(t *testing.T) {
	if !(Instr{Kind: Call}).IsCall() || !(Instr{Kind: CallIndMem}).IsCall() {
		t.Error("IsCall misses call kinds")
	}
	if (Instr{Kind: Branch}).IsCall() {
		t.Error("Branch is not a call")
	}
	if (Instr{Kind: Branch}).FallsThrough() {
		t.Error("unconditional branch falls through")
	}
	if !(Instr{Kind: BranchCond}).FallsThrough() || !(Instr{Kind: Call}).FallsThrough() {
		t.Error("conditional branch and call must fall through")
	}
	for _, k := range []Kind{Branch, BranchCond, Call, CallInd, CallIndMem, JumpInd, Ret, Halt, Throw, Trap} {
		if !(Instr{Kind: k}).IsControlFlow() {
			t.Errorf("%s not recognised as control flow", k)
		}
	}
	if (Instr{Kind: Load}).IsControlFlow() {
		t.Error("Load is not control flow")
	}
}

func TestArchStringerAndHelpers(t *testing.T) {
	if X64.String() != "x64" || PPC.String() != "ppc" || A64.String() != "a64" {
		t.Error("arch names wrong")
	}
	if X64.FixedWidth() || !PPC.FixedWidth() || !A64.FixedWidth() {
		t.Error("FixedWidth wrong")
	}
	if X64.InstrAlign() != 1 || PPC.InstrAlign() != 4 {
		t.Error("InstrAlign wrong")
	}
	if len(All()) != 3 {
		t.Error("All() must list three architectures")
	}
}

func TestEncodeDecodeQuickRandomOperands(t *testing.T) {
	// Randomised operand fuzzing per kind: any instruction the encoder
	// accepts must decode back to equivalent semantics.
	rng := rand.New(rand.NewSource(42))
	kinds := []Kind{MovReg, ALU, ALUImm, Load, Store, LoadIdx, Lea, Branch, BranchCond, Call, CallInd, CallIndMem, JumpInd, Syscall}
	sizes := []uint8{1, 2, 4, 8}
	for _, a := range All() {
		enc := ForArch(a)
		for trial := 0; trial < 3000; trial++ {
			i := Instr{
				Kind:   kinds[rng.Intn(len(kinds))],
				Op:     ALUOp(rng.Intn(int(Shr) + 1)),
				Cond:   Cond(rng.Intn(int(LE) + 1)),
				Rd:     Reg(rng.Intn(NumGPRegs)),
				Rs1:    Reg(rng.Intn(NumGPRegs)),
				Rs2:    Reg(rng.Intn(NumGPRegs)),
				Size:   sizes[rng.Intn(4)],
				Scale:  sizes[rng.Intn(4)],
				Signed: rng.Intn(2) == 0,
			}
			switch i.Kind {
			case Branch, Call:
				i.Imm = (rng.Int63n(1<<20) - 1<<19) &^ 3
			case BranchCond:
				i.Imm = (rng.Int63n(1<<12) - 1<<11) &^ 3
			case Lea:
				i.Imm = (rng.Int63n(1<<19) - 1<<18) &^ 3
			case ALUImm, Load, Store, CallIndMem:
				i.Imm = rng.Int63n(1<<11) - 1<<10
			case Syscall:
				i.Imm = rng.Int63n(256)
			case LoadIdx:
				i.Imm = 0
			}
			b, err := enc.Append(nil, i)
			if err != nil {
				continue // out-of-range for this ISA; fine
			}
			got, err := enc.Decode(b, 0)
			if err != nil {
				t.Fatalf("%s: decode of encoded %q failed: %v", a, i, err)
			}
			if got.Kind == Illegal {
				t.Fatalf("%s: encoded %q decodes as illegal (% x)", a, i, b)
			}
			// Compare canonically: re-encoding the decoded instruction
			// must reproduce the same bytes (fields the encoding does
			// not carry, like Cond on a load, are don't-cares).
			b2, err := enc.Append(nil, got)
			if err != nil {
				t.Fatalf("%s: re-encode %q: %v", a, got, err)
			}
			if string(b2) != string(b) {
				t.Fatalf("%s: %q -> % x -> %q -> % x", a, i, b, got, b2)
			}
		}
	}
}
