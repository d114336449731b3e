package emu

import (
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
)

// rawBinary assembles the given instructions into a minimal binary.
func rawBinary(t *testing.T, a arch.Arch, pie bool, instrs []arch.Instr) *bin.Binary {
	t.Helper()
	enc := arch.ForArch(a)
	var text []byte
	for _, ins := range instrs {
		bts, err := enc.Append(nil, ins)
		if err != nil {
			t.Fatalf("encode %s: %v", ins, err)
		}
		text = append(text, bts...)
	}
	b := bin.New(a)
	b.PIE = pie
	b.Entry = 0x401000
	if _, err := b.AddSection(&bin.Section{Name: bin.SecText, Addr: 0x401000, Data: text, Flags: bin.FlagAlloc | bin.FlagExec}); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestHaltExitCode(t *testing.T) {
	for _, a := range arch.All() {
		mov := arch.Instr{Kind: arch.MovImm16, Rd: arch.R0, Imm: 7}
		if a == arch.X64 {
			mov = arch.Instr{Kind: arch.MovImm, Rd: arch.R0, Imm: 7}
		}
		b := rawBinary(t, a, false, []arch.Instr{mov, {Kind: arch.Halt}})
		m, err := Load(b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil || res.Exit != 7 {
			t.Errorf("%s: exit = %d, err = %v", a, res.Exit, err)
		}
	}
}

func TestIllegalInstructionFaults(t *testing.T) {
	b := rawBinary(t, arch.X64, false, []arch.Instr{{Kind: arch.Illegal}})
	m, _ := Load(b, Options{})
	if _, err := m.Run(); !IsFault(err, FaultIllegal) {
		t.Errorf("err = %v, want illegal instruction fault", err)
	}
}

func TestFetchOutsideTextFaults(t *testing.T) {
	b := rawBinary(t, arch.X64, false, []arch.Instr{{Kind: arch.Branch, Imm: 0x5000}})
	m, _ := Load(b, Options{})
	if _, err := m.Run(); !IsFault(err, FaultFetch) {
		t.Errorf("err = %v, want fetch fault", err)
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	b := rawBinary(t, arch.A64, false, []arch.Instr{
		{Kind: arch.ALU, Op: arch.Div, Rd: arch.R0, Rs1: arch.R1, Rs2: arch.R2},
	})
	m, _ := Load(b, Options{})
	if _, err := m.Run(); !IsFault(err, FaultDiv) {
		t.Errorf("err = %v, want div fault", err)
	}
}

func TestBudgetFault(t *testing.T) {
	// Infinite loop.
	b := rawBinary(t, arch.PPC, false, []arch.Instr{{Kind: arch.Branch, Imm: 0}})
	m, _ := Load(b, Options{MaxInstrs: 1000})
	if _, err := m.Run(); !IsFault(err, FaultBudget) {
		t.Errorf("err = %v, want budget fault", err)
	}
}

func TestUnhandledTrapFaults(t *testing.T) {
	b := rawBinary(t, arch.X64, false, []arch.Instr{{Kind: arch.Trap}})
	m, _ := Load(b, Options{})
	if _, err := m.Run(); !IsFault(err, FaultTrap) {
		t.Errorf("err = %v, want trap fault", err)
	}
}

// stubRuntime implements Runtime for hook tests.
type stubRuntime struct {
	traps map[uint64]uint64
}

func (s *stubRuntime) TrapTarget(pc uint64) (uint64, bool) { v, ok := s.traps[pc]; return v, ok }
func (s *stubRuntime) TranslateRA(pc uint64) uint64        { return pc }
func (s *stubRuntime) WrapsUnwind() bool                   { return false }
func (s *stubRuntime) PatchesGoRuntime() bool              { return false }

func TestTrapHandlerRedirects(t *testing.T) {
	// trap at 0x401000; handler sends control to the halt at 0x401002.
	b := rawBinary(t, arch.X64, false, []arch.Instr{
		{Kind: arch.Trap},
		{Kind: arch.Illegal},
		{Kind: arch.Halt},
	})
	rt := &stubRuntime{traps: map[uint64]uint64{0x401000: 0x401002}}
	m, _ := Load(b, Options{Runtime: rt})
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Traps != 1 {
		t.Errorf("traps = %d, want 1", res.Traps)
	}
	if res.Cycles < DefaultCosts().Trap {
		t.Errorf("cycles = %d: trap cost not charged", res.Cycles)
	}
}

func TestPIERelocationApplied(t *testing.T) {
	// A PIE binary with a pointer cell; the loader must rebase it.
	b := rawBinary(t, arch.X64, true, []arch.Instr{
		{Kind: arch.LoadPC, Rd: arch.R1, Size: 8, Imm: 0x1000}, // reads the cell
		{Kind: arch.Syscall, Imm: SysPrint},
		{Kind: arch.Halt},
	})
	cell := make([]byte, 8)
	if _, err := b.AddSection(&bin.Section{Name: bin.SecData, Addr: 0x402000, Data: cell, Flags: bin.FlagAlloc | bin.FlagWrite}); err != nil {
		t.Fatal(err)
	}
	b.Relocs = append(b.Relocs, bin.Reloc{Kind: bin.RelocRelative, Off: 0x402000, Addend: 0x401000})
	m, err := Load(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := "366418595840\n" // 0x401000 + DefaultPIEBase
	if string(res.Output) != want {
		t.Errorf("output = %q, want %q", res.Output, want)
	}
}

func TestICacheBehaviour(t *testing.T) {
	var c ICache
	if c.Access(0) {
		t.Error("cold cache hit")
	}
	if !c.Access(0) || !c.Access(63) {
		t.Error("same-line access missed")
	}
	if c.Access(64) {
		t.Error("next line hit while cold")
	}
	// Fill one set beyond associativity: line 0 must be evicted.
	for w := 1; w <= icacheWays; w++ {
		c.Access(uint64(w) * 64 * icacheSets)
	}
	if c.Access(0) {
		t.Error("line survived eviction")
	}
	if c.Misses == 0 || c.Accesses == 0 {
		t.Error("counters not updated")
	}
}

func TestCostModelCharges(t *testing.T) {
	costs := DefaultCosts()
	if costs.instrCost(arch.Instr{Kind: arch.Load}) <= costs.instrCost(arch.Instr{Kind: arch.Nop}) {
		t.Error("loads must cost more than nops")
	}
	div := arch.Instr{Kind: arch.ALU, Op: arch.Div}
	add := arch.Instr{Kind: arch.ALU, Op: arch.Add}
	if costs.instrCost(div) <= costs.instrCost(add) {
		t.Error("div must cost more than add")
	}
	if costs.Trap < 100 {
		t.Error("trap delivery must be expensive (signal model)")
	}
	if costs.UnwindFrame <= costs.RATranslate {
		t.Error("one frame unwind must dominate one RA translation (Section 6 premise)")
	}
}

func TestMemoryReadWriteSizes(t *testing.T) {
	m := NewMemory()
	for _, size := range []uint8{1, 2, 4, 8} {
		if err := m.Write(0x5000, 0x1122334455667788, size); err != nil {
			t.Fatal(err)
		}
		v, err := m.Read(0x5000, size)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(0x1122334455667788) & (1<<(8*uint(size)) - 1)
		if size == 8 {
			want = 0x1122334455667788
		}
		if v != want {
			t.Errorf("size %d: read %#x, want %#x", size, v, want)
		}
	}
	// Cross-page access.
	if err := m.Write(pageSize-3, 0xAABBCCDDEEFF, 8); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Read(pageSize-3, 8)
	if v != 0xAABBCCDDEEFF {
		t.Errorf("cross-page read %#x", v)
	}
	if _, err := m.Read(0, 9); err == nil {
		t.Error("size 9 read accepted")
	}
}

func TestFetchWindowRespectsExecRanges(t *testing.T) {
	m := NewMemory()
	m.Map(0x1000, []byte{1, 2, 3, 4}, true)
	m.Map(0x2000, []byte{5, 6}, false)
	if w := m.FetchWindow(0x1002, 10); len(w) != 2 || w[0] != 3 {
		t.Errorf("window = %v", w)
	}
	if m.FetchWindow(0x2000, 4) != nil {
		t.Error("fetched from non-executable range")
	}
	// The exec-range edges: the last byte of the range is fetchable, one
	// past it and a data range are not.
	if w := m.FetchWindow(0x1003, 1); len(w) != 1 || w[0] != 4 {
		t.Errorf("window at last exec byte = %v", w)
	}
	if m.FetchWindow(0x1004, 1) != nil || m.FetchWindow(0x2000, 1) != nil {
		t.Error("exec ranges wrong")
	}
}

func TestSignExtendingLoads(t *testing.T) {
	for _, a := range arch.All() {
		instrs := []arch.Instr{
			{Kind: arch.MovImm16, Rd: arch.R2, Imm: 0x2100}, // address low bits
			{Kind: arch.MovK16, Rd: arch.R2, Imm: 0x40, Shift: 1},
			{Kind: arch.Load, Rd: arch.R1, Rs1: arch.R2, Size: 4, Signed: true},
			{Kind: arch.Syscall, Imm: SysPrint},
			{Kind: arch.Halt},
		}
		if a == arch.X64 {
			instrs[0] = arch.Instr{Kind: arch.MovImm, Rd: arch.R2, Imm: 0x402100}
			instrs[1] = arch.Instr{Kind: arch.Nop}
		}
		b := rawBinary(t, a, false, instrs)
		data := make([]byte, 0x200)
		// -4 as int32 little endian at offset 0x100.
		copy(data[0x100:], []byte{0xFC, 0xFF, 0xFF, 0xFF})
		if _, err := b.AddSection(&bin.Section{Name: bin.SecData, Addr: 0x402000, Data: data, Flags: bin.FlagAlloc | bin.FlagWrite}); err != nil {
			t.Fatal(err)
		}
		m, err := Load(b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if string(res.Output) != "18446744073709551612\n" { // uint64(-4)
			t.Errorf("%s: output = %q", a, res.Output)
		}
	}
}

func TestExecutionTrace(t *testing.T) {
	b := rawBinary(t, arch.PPC, false, []arch.Instr{
		{Kind: arch.Nop},
		{Kind: arch.Nop},
		{Kind: arch.Halt},
	})
	m, err := Load(b, Options{TraceDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	tr := m.Trace()
	if len(tr) != 3 {
		t.Fatalf("trace = %#v, want 3 entries", tr)
	}
	if tr[0] != 0x401000 || tr[2] != 0x401008 {
		t.Errorf("trace = %#v", tr)
	}
	// Without the option, no trace.
	m2, _ := Load(b, Options{})
	m2.Run()
	if m2.Trace() != nil {
		t.Error("trace present without TraceDepth")
	}
}
