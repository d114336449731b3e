package cfg

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/asm"
	"icfgpatch/internal/bin"
)

var edgeKindNames = [...]string{
	EdgeFall:     "fall",
	EdgeJump:     "jump",
	EdgeCond:     "cond",
	EdgeCallFall: "callfall",
	EdgeIndirect: "indirect",
}

// dumpFunc writes a canonical text rendering of one function's CFG:
// bounds and error, every block with its instruction addresses, edges
// and predecessors, every indirect jump with its table, and the catch
// pads, data ranges and gaps. Data ranges are printed in address order
// because their order in the Func carries no meaning.
func dumpFunc(w io.Writer, f *Func) {
	fmt.Fprintf(w, "func %s [%#x,%#x) err=%v\n", f.Name, f.Entry, f.End, f.Err)
	for _, blk := range f.Blocks {
		fmt.Fprintf(w, "  block [%#x,%#x) instrs", blk.Start, blk.End)
		for _, ins := range blk.Instrs {
			fmt.Fprintf(w, " %#x", ins.Addr)
		}
		fmt.Fprint(w, "\n    succs")
		for _, e := range blk.Succs {
			fmt.Fprintf(w, " %#x/%s", e.To, edgeKindNames[e.Kind])
		}
		fmt.Fprint(w, "\n    preds")
		for _, p := range blk.Preds {
			fmt.Fprintf(w, " %#x", p)
		}
		fmt.Fprintln(w)
	}
	for _, ij := range f.IndirectJumps {
		fmt.Fprintf(w, "  ijump %#x tail=%t err=%v", ij.Addr, ij.TailCall, ij.Err)
		if t := ij.Table; t != nil {
			fmt.Fprintf(w, " table=%#x count=%d intext=%t mark-bounded=%t targets", t.TableAddr, t.Count, t.InText, t.MarkBounded)
			for _, tg := range t.Targets {
				fmt.Fprintf(w, " %#x", tg)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprint(w, "  pads")
	for _, p := range f.CatchPads {
		fmt.Fprintf(w, " %#x", p)
	}
	fmt.Fprint(w, "\n  data")
	drs := slices.Clone(f.DataRanges)
	slices.SortFunc(drs, func(a, b [2]uint64) int {
		if a[0] != b[0] {
			return cmpU64(a[0], b[0])
		}
		return cmpU64(a[1], b[1])
	})
	for _, dr := range drs {
		fmt.Fprintf(w, " [%#x,%#x)", dr[0], dr[1])
	}
	fmt.Fprint(w, "\n  gaps")
	for _, g := range f.Gaps {
		fmt.Fprintf(w, " [%#x,%#x)", g[0], g[1])
	}
	fmt.Fprintf(w, " nop-only=%t\n", f.GapsNopOnly)
}

func cmpU64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// dumpGraph dumps every function of g in entry order.
func dumpGraph(w io.Writer, g *Graph) {
	for _, f := range g.Funcs {
		dumpFunc(w, f)
	}
}

// rawFunc wraps code as the .text of a binary holding one function,
// named "f", that spans all of it.
func rawFunc(a arch.Arch, code []byte) (*bin.Binary, bin.Symbol) {
	const base = 0x10000
	b := bin.New(a)
	b.Sections = []*bin.Section{{Name: bin.SecText, Addr: base, Data: code, Flags: bin.FlagAlloc | bin.FlagExec, Align: 16}}
	sym := bin.Symbol{Name: "f", Addr: base, Size: uint64(len(code)), Kind: bin.SymFunc, Global: true}
	b.Symbols = []bin.Symbol{sym}
	return b, sym
}

// interleavedX64 is an x64 function whose conditional branch lands in
// the middle of a 10-byte movimm. The immediate's bytes decode as nops,
// so two decode runs overlap byte for byte and converge on the
// function's ret.
func interleavedX64() []byte {
	enc := arch.ForArch(arch.X64)
	var code []byte
	emit := func(ins arch.Instr) {
		var err error
		if code, err = enc.Append(code, ins); err != nil {
			panic(err)
		}
	}
	// 0: cond branch to 10 (7 bytes); 7: movimm (10 bytes, imm at 9..16).
	emit(arch.Instr{Kind: arch.BranchCond, Cond: arch.EQ, Rs1: arch.R3, Imm: 10})
	emit(arch.Instr{Kind: arch.MovImm, Rd: arch.R1, Imm: -0x6f6f6f6f6f6f6f70})
	emit(arch.Instr{Kind: arch.Ret})
	return code
}

// markBoundedX64 links a CFI x64 function whose spilled-index switch
// table is followed by an 8-byte cell holding the address of an
// unmarked instruction in the same function. Without landing-pad
// evidence Assumption-2 extension takes the cell as a fourth case;
// trusted evidence trims the table at it.
func markBoundedX64() (*bin.Binary, error) {
	link := func(cell uint64) (*bin.Binary, *asm.DebugInfo, error) {
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
		b.SetEntry("main")
		return b.Link()
	}
	_, dbg, err := link(0)
	if err != nil {
		return nil, err
	}
	// The first case's add is not a landing pad: its mark precedes it.
	img, _, err := link(dbg.Tables[0].Targets[0] + 1)
	return img, err
}
