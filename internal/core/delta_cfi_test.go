package core_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/asm"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/core"
	"icfgpatch/internal/workload"
)

// cfiFixture links a CFI x64 binary with two functions. main's
// spilled-index switch table is followed by a cell holding the address
// of an unmarked instruction, so trusted evidence trims the table at
// three cases where Assumption-2 extension takes four (the shape of
// cfg's markBoundedX64). victim adds imm to a register, halts, and then
// holds an unreachable movimm whose value is the address of that add's
// immediate byte: a candidate pointer only the linear text sweep sees.
// With imm = 0x1A the byte is a marker mid-instruction, which the trust
// check refuses; any other value leaves the evidence trusted. Every imm
// links to the same layout.
func cfiFixture(t *testing.T, imm int64) *bin.Binary {
	t.Helper()
	link := func(cell, ptr uint64) (*bin.Binary, *asm.DebugInfo) {
		b := asm.New(arch.X64, false)
		b.SetCFI()
		f := b.Func("main")
		f.SetFrame(16)
		f.Li(arch.R8, 1)
		cases := []asm.Label{f.NewLabel(), f.NewLabel(), f.NewLabel()}
		def, join := f.NewLabel(), f.NewLabel()
		f.Switch(arch.R8, arch.R9, arch.R10, cases, def, asm.SwitchOpts{SpillIndex: true})
		b.RodataBytes("overrun", binary.LittleEndian.AppendUint64(nil, cell))
		for i, c := range cases {
			f.Bind(c)
			f.Mark()
			f.OpI(arch.Add, arch.R3, arch.R3, int64(i+1))
			f.BranchTo(join)
		}
		f.Bind(def)
		f.Bind(join)
		f.Print(arch.R3)
		f.Halt()
		v := b.Func("victim")
		v.OpI(arch.Add, arch.R3, arch.R1, imm)
		v.Halt()
		v.I(arch.Instr{Kind: arch.MovImm, Rd: arch.R5, Imm: int64(ptr)})
		b.SetEntry("main")
		img, dbg, err := b.Link()
		if err != nil {
			t.Fatal(err)
		}
		return img, dbg
	}
	img, dbg := link(0, 0)
	sym, ok := img.SymbolByName("victim")
	if !ok {
		t.Fatal("fixture has no victim")
	}
	var immByte uint64
	text := img.Text()
	for _, ins := range arch.DecodeAll(arch.X64, text.Data[sym.Addr-text.Addr:sym.Addr+sym.Size-text.Addr], sym.Addr) {
		if ins.Kind == arch.ALUImm && ins.Imm == imm {
			immByte = ins.Addr + 4 // opcode, op, rd, rs1, then the imm32
		}
	}
	if immByte == 0 {
		t.Fatal("fixture: victim's add not found")
	}
	// The first case's add is not a landing pad: its marker precedes it.
	img, _ = link(dbg.Tables[0].Targets[0]+1, immByte)
	return img
}

// deltaMatchesCold analyses v2 through units (already holding earlier
// versions' units) and checks the patched bytes against a cold rewrite.
func deltaMatchesCold(t *testing.T, v2 *bin.Binary, mode core.Mode, units *core.UnitStore) *core.Analysis {
	t.Helper()
	an, err := core.Analyze(v2, core.AnalysisConfig{Mode: mode, Units: units})
	if err != nil {
		t.Fatal(err)
	}
	opts := deltaOpts(v2.Arch, mode)
	cold, err := core.Rewrite(v2, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Patch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold.Binary.Marshal(), res.Binary.Marshal()) {
		t.Fatal("delta rewrite differs from cold rewrite")
	}
	return an
}

// TestDeltaCFIRewriteMatchesCold runs the delta contract under trusted
// landing-pad evidence, where func-ptr units carry the trust bit in
// their identity. On generated CFI binaries and on a hand-built
// mark-bounded table, a trusted v2 reuses trusted units and matches a
// cold rewrite. Planting a marker mid-instruction in one function then
// flips the whole binary to untrusted: every func-ptr unit must
// recompute (none may validate across the trust fork), the table loses
// its marker trim, and the output still matches cold. In jt mode the
// trust bit is not part of the identity, so the same edit recomputes
// only the edited function.
func TestDeltaCFIRewriteMatchesCold(t *testing.T) {
	t.Run("generated", func(t *testing.T) {
		gens := map[string]func() (*workload.Program, error){
			"perlbench-x64": func() (*workload.Program, error) { return workload.SPECCFI(arch.X64, false, "600.perlbench_s") },
			"perlbench-ppc": func() (*workload.Program, error) { return workload.SPECCFI(arch.PPC, false, "600.perlbench_s") },
			"gotable-x64":   func() (*workload.Program, error) { return workload.GoTableCFI(arch.X64) },
		}
		for name, gen := range gens {
			p, err := gen()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			v1 := p.Binary
			v2, _, err := workload.MutateVersion(v1, mutateK, 5)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			units := core.NewUnitStore(0)
			an1 := deltaMatchesCold(t, v1, core.ModeFuncPtr, units)
			an2 := deltaMatchesCold(t, v2, core.ModeFuncPtr, units)
			if !an1.Evidence.Trusted || !an2.Evidence.Trusted {
				t.Fatalf("%s: evidence trusted v1=%v v2=%v, want both", name, an1.Evidence.Trusted, an2.Evidence.Trusted)
			}
			if an2.Metrics.FuncsReused == 0 || an2.Metrics.FuncsRecomputed == 0 {
				t.Errorf("%s: v2 delta = %d reused, %d recomputed; want both > 0", name, an2.Metrics.FuncsReused, an2.Metrics.FuncsRecomputed)
			}
		}
	})

	t.Run("mark-bounded", func(t *testing.T) {
		v1, v2, planted := cfiFixture(t, 0x1B), cfiFixture(t, 0x1C), cfiFixture(t, 0x1A)
		units := core.NewUnitStore(0)
		an1 := deltaMatchesCold(t, v1, core.ModeFuncPtr, units)
		if !an1.Evidence.Trusted || an1.Evidence.MarkBoundedTables != 1 {
			t.Fatalf("v1: trusted=%v mark-bounded=%d, want trusted with one trimmed table", an1.Evidence.Trusted, an1.Evidence.MarkBoundedTables)
		}
		an2 := deltaMatchesCold(t, v2, core.ModeFuncPtr, units)
		if !an2.Evidence.Trusted || an2.Metrics.FuncsReused != 1 || an2.RecomputedNames[0] != "victim" {
			t.Fatalf("v2: trusted=%v delta=%+v, want trusted with only victim recomputed", an2.Evidence.Trusted, deltaSummary(an2))
		}

		an3 := deltaMatchesCold(t, planted, core.ModeFuncPtr, units)
		if an3.Evidence.Trusted || !an3.Evidence.Corrupt || an3.Evidence.MarkBoundedTables != 0 {
			t.Fatalf("planted: trusted=%v corrupt=%v mark-bounded=%d, want corrupt and untrimmed",
				an3.Evidence.Trusted, an3.Evidence.Corrupt, an3.Evidence.MarkBoundedTables)
		}
		if an3.Metrics.FuncsReused != 0 || an3.Metrics.FuncsRecomputed != len(an3.FuncUnits) {
			t.Fatalf("planted: delta = %+v, want every unit recomputed across the trust fork", deltaSummary(an3))
		}

		jt := core.NewUnitStore(0)
		deltaMatchesCold(t, v1, core.ModeJT, jt)
		anJT := deltaMatchesCold(t, planted, core.ModeJT, jt)
		if anJT.Metrics.FuncsReused != 1 || anJT.RecomputedNames[0] != "victim" {
			t.Fatalf("planted, jt mode: delta = %+v, want only victim recomputed", deltaSummary(anJT))
		}
	})
}
