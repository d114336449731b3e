package emu

import (
	"fmt"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
)

// execFixed runs a fixed-width instruction sequence (plus halt) and
// returns the machine for register inspection.
func execFixed(t *testing.T, a arch.Arch, instrs []arch.Instr) *Machine {
	t.Helper()
	b := rawBinary(t, a, false, append(instrs, arch.Instr{Kind: arch.Halt}))
	m, err := Load(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSemanticsMovChain(t *testing.T) {
	// movz/movk chunk composition.
	m := execFixed(t, arch.A64, []arch.Instr{
		{Kind: arch.MovImm16, Rd: arch.R1, Imm: 0x1111},
		{Kind: arch.MovK16, Rd: arch.R1, Imm: 0x2222, Shift: 1},
		{Kind: arch.MovK16, Rd: arch.R1, Imm: 0x3333, Shift: 2},
		{Kind: arch.MovK16, Rd: arch.R1, Imm: 0x4444, Shift: 3},
		// movz resets untouched chunks.
		{Kind: arch.MovImm16, Rd: arch.R2, Imm: 0x5555, Shift: 2},
	})
	if got := m.Reg(arch.R1); got != 0x4444333322221111 {
		t.Errorf("movk chain = %#x", got)
	}
	if got := m.Reg(arch.R2); got != 0x5555<<32 {
		t.Errorf("shifted movz = %#x", got)
	}
}

func TestSemanticsALU(t *testing.T) {
	cases := []struct {
		op   arch.ALUOp
		a, b uint64
		want uint64
	}{
		{arch.Add, 7, 5, 12},
		{arch.Sub, 7, 5, 2},
		{arch.Sub, 5, 7, ^uint64(1)}, // wraps
		{arch.Mul, 7, 5, 35},
		{arch.Div, 35, 5, 7},
		{arch.And, 0b1100, 0b1010, 0b1000},
		{arch.Or, 0b1100, 0b1010, 0b1110},
		{arch.Xor, 0b1100, 0b1010, 0b0110},
		{arch.Shl, 3, 4, 48},
		{arch.Shr, 48, 4, 3},
		{arch.Shl, 1, 65, 2}, // shift amounts mask to 6 bits
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s_%d_%d", tc.op, tc.a, tc.b), func(t *testing.T) {
			m := execFixed(t, arch.PPC, []arch.Instr{
				{Kind: arch.MovImm16, Rd: arch.R1, Imm: int64(tc.a)},
				{Kind: arch.MovImm16, Rd: arch.R2, Imm: int64(tc.b & 0xFFFF)},
				{Kind: arch.ALU, Op: tc.op, Rd: arch.R3, Rs1: arch.R1, Rs2: arch.R2},
			})
			if got := m.Reg(arch.R3); got != tc.want {
				t.Errorf("got %#x, want %#x", got, tc.want)
			}
		})
	}
}

func TestSemanticsAddIS(t *testing.T) {
	m := execFixed(t, arch.PPC, []arch.Instr{
		{Kind: arch.MovImm16, Rd: arch.R1, Imm: 0x10},
		{Kind: arch.AddIS, Rd: arch.R2, Rs1: arch.R1, Imm: 2},      // +0x20000
		{Kind: arch.AddIS, Rd: arch.R3, Rs1: arch.R1, Imm: -1},     // -0x10000
		{Kind: arch.AddImm16, Rd: arch.R4, Rs1: arch.R1, Imm: -16}, // addi
	})
	if got := m.Reg(arch.R2); got != 0x20010 {
		t.Errorf("addis positive = %#x", got)
	}
	neg := int64(16) - 0x10000
	if m.Reg(arch.R3) != uint64(neg) {
		t.Errorf("addis negative = %#x", m.Reg(arch.R3))
	}
	if got := m.Reg(arch.R4); got != 0 {
		t.Errorf("addi = %#x", got)
	}
}

func TestSemanticsLeaAndLeaHi(t *testing.T) {
	// lea forms instr address + offset; adrp forms page(instr)+offset.
	b := rawBinary(t, arch.A64, false, []arch.Instr{
		{Kind: arch.Lea, Rd: arch.R1, Imm: 8},
		{Kind: arch.LeaHi, Rd: arch.R2, Imm: 0x3000},
		{Kind: arch.Halt},
	})
	m, err := Load(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Reg(arch.R1); got != 0x401000+8 {
		t.Errorf("lea = %#x", got)
	}
	if got := m.Reg(arch.R2); got != (0x401004&^0xFFF)+0x3000 {
		t.Errorf("adrp = %#x", got)
	}
}

func TestSemanticsLoadIdxAddressing(t *testing.T) {
	// base + index*scale reads.
	b := rawBinary(t, arch.X64, false, []arch.Instr{
		{Kind: arch.MovImm, Rd: arch.R2, Imm: 0x402000}, // base
		{Kind: arch.MovImm, Rd: arch.R3, Imm: 3},        // index
		{Kind: arch.LoadIdx, Rd: arch.R1, Rs1: arch.R2, Rs2: arch.R3, Size: 2, Scale: 2},
		{Kind: arch.Halt},
	})
	data := make([]byte, 16)
	data[6], data[7] = 0xCD, 0xAB // entry 3 at offset 6, uint16
	if _, err := b.AddSection(&bin.Section{Name: bin.SecData, Addr: 0x402000, Data: data, Flags: bin.FlagAlloc | bin.FlagWrite}); err != nil {
		t.Fatal(err)
	}
	m, err := Load(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Reg(arch.R1); got != 0xABCD {
		t.Errorf("loadidx = %#x", got)
	}
}

func TestSemanticsCallIndMem(t *testing.T) {
	// call through a memory slot: reads the target from [r2+8].
	b := rawBinary(t, arch.X64, false, []arch.Instr{
		{Kind: arch.MovImm, Rd: arch.R2, Imm: 0x402000},
		{Kind: arch.CallIndMem, Rs1: arch.R2, Imm: 8},
		{Kind: arch.Halt},    // returns here
		{Kind: arch.Illegal}, // padding
	})
	// Callee at 0x401030: set r0, ret.
	enc := arch.ForArch(arch.X64)
	callee := []arch.Instr{
		{Kind: arch.MovImm, Rd: arch.R0, Imm: 99},
		{Kind: arch.Ret},
	}
	text := b.Text()
	off := uint64(0x30)
	for _, ins := range callee {
		bs, _ := enc.Append(nil, ins)
		for len(text.Data) < int(off)+len(bs) {
			text.Data = append(text.Data, 0x90)
		}
		copy(text.Data[off:], bs)
		off += uint64(len(bs))
	}
	data := make([]byte, 16)
	target := uint64(0x401030)
	for i := 0; i < 8; i++ {
		data[8+i] = byte(target >> (8 * i))
	}
	if _, err := b.AddSection(&bin.Section{Name: bin.SecData, Addr: 0x402000, Data: data, Flags: bin.FlagAlloc | bin.FlagWrite}); err != nil {
		t.Fatal(err)
	}
	m, err := Load(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != 99 {
		t.Errorf("exit = %d, want 99 (callee ran and returned)", res.Exit)
	}
}

func TestSemanticsLRCallDiscipline(t *testing.T) {
	// Fixed-width calls set LR; Ret branches to it; nested calls must
	// save LR or lose the outer return address (the emulator must model
	// exactly that hazard).
	b := rawBinary(t, arch.A64, false, []arch.Instr{
		{Kind: arch.Call, Imm: 12}, // call leaf at +12
		{Kind: arch.Halt},
		{Kind: arch.Illegal},
		// leaf:
		{Kind: arch.MovImm16, Rd: arch.R0, Imm: 7},
		{Kind: arch.Ret},
	})
	m, err := Load(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != 7 {
		t.Errorf("exit = %d", res.Exit)
	}
	if got := m.Reg(arch.LR); got != 0x401004 {
		t.Errorf("LR = %#x, want return address 0x401004", got)
	}
}
