package analysis_test

import (
	"encoding/binary"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
)

const (
	fuzzTextAddr = 0x10000
	fuzzDataAddr = 0x20000
)

// fuzzBinary builds a binary from fuzz input. prog is a token stream:
// each token byte picks an instruction shape (nops, markers, movimm,
// movz/movk pairs and their halves, adrp and its add, lea, pc-relative
// loads, rets, raw garbage, a truncated encoding, or a data cell
// pointing into the text) and the bytes after it are its operands. syms
// is read three bytes per symbol: a text offset and a size, which may
// be zero or run past the text; with snap set each symbol moves to the
// first marker at or after its offset, so marked entries (and trust)
// are reachable.
func fuzzBinary(a arch.Arch, prog, syms []byte, cfi, snap bool) *bin.Binary {
	enc := arch.ForArch(a)
	var code, data []byte
	var markOffs []uint64
	next := func() byte {
		if len(prog) == 0 {
			return 0
		}
		v := prog[0]
		prog = prog[1:]
		return v
	}
	textTarget := func() uint64 { return fuzzTextAddr + uint64(next())<<2 | uint64(next()&3) }
	emit := func(ins arch.Instr) bool {
		ins.Addr = fuzzTextAddr + uint64(len(code))
		out, err := enc.Append(code, ins)
		if err != nil {
			return false
		}
		code = out
		return true
	}
	for tokens := 0; len(prog) > 0 && tokens < 256; tokens++ {
		rd := arch.Reg(next() % 8)
		switch next() % 14 {
		case 0:
			emit(arch.Instr{Kind: arch.Nop})
		case 1:
			markOffs = append(markOffs, uint64(len(code)))
			emit(arch.Instr{Kind: arch.Mark})
		case 2:
			v := textTarget()
			if a != arch.X64 {
				v &= 0xFFFF
			}
			emit(arch.Instr{Kind: arch.MovImm, Rd: rd, Imm: int64(v)})
		case 3:
			v := textTarget()
			if emit(arch.Instr{Kind: arch.MovImm16, Rd: rd, Imm: int64(v & 0xFFFF)}) {
				emit(arch.Instr{Kind: arch.MovK16, Rd: rd, Shift: 1, Imm: int64(v >> 16)})
			}
		case 4:
			emit(arch.Instr{Kind: arch.MovImm16, Rd: rd, Imm: int64(next())})
		case 5:
			emit(arch.Instr{Kind: arch.MovK16, Rd: rd, Shift: 1, Imm: 1})
		case 6:
			page := uint64(fuzzTextAddr)
			if next()&1 == 1 {
				page = fuzzDataAddr
			}
			at := uint64(fuzzTextAddr + len(code))
			emit(arch.Instr{Kind: arch.LeaHi, Rd: rd, Imm: int64(page - at&^0xFFF)})
		case 7:
			imm := int64(next()) << 3
			if !emit(arch.Instr{Kind: arch.AddImm16, Rd: rd, Rs1: rd, Imm: imm}) {
				emit(arch.Instr{Kind: arch.ALUImm, Op: arch.Add, Rd: rd, Rs1: rd, Imm: imm})
			}
		case 8:
			emit(arch.Instr{Kind: arch.Lea, Rd: rd, Imm: int64(textTarget()) - int64(fuzzTextAddr+len(code))})
		case 9:
			emit(arch.Instr{Kind: arch.LoadPC, Rd: rd, Size: 8, Imm: int64(fuzzDataAddr+uint64(next())) - int64(fuzzTextAddr+len(code))})
		case 10:
			emit(arch.Instr{Kind: arch.Ret})
		case 11:
			code = append(code, next())
		case 12:
			full, err := enc.Append(nil, arch.Instr{Kind: arch.MovImm, Rd: rd, Imm: 0x1A1A})
			if err == nil {
				code = append(code, full[:1+int(next())%len(full)]...)
			}
		case 13:
			data = binary.LittleEndian.AppendUint64(data, textTarget())
		}
	}
	if len(code) == 0 {
		code = append(code, 0)
	}
	b := bin.New(a)
	b.Sections = []*bin.Section{
		{Name: bin.SecText, Addr: fuzzTextAddr, Data: code, Flags: bin.FlagAlloc | bin.FlagExec},
		{Name: bin.SecData, Addr: fuzzDataAddr, Data: append(data, make([]byte, 8)...), Flags: bin.FlagAlloc | bin.FlagWrite},
	}
	if cfi {
		b.Meta["cfi"] = "1"
	}
	for k := 0; k+2 < len(syms) && k < 3*32; k += 3 {
		off := (uint64(syms[k])<<8 | uint64(syms[k+1])) % uint64(len(code))
		if snap {
			for _, m := range markOffs {
				if m >= off && m < uint64(len(code)) {
					off = m
					break
				}
			}
		}
		b.Symbols = append(b.Symbols, bin.Symbol{
			Name: "f" + string(rune('a'+k/3)), Addr: fuzzTextAddr + off,
			Size: uint64(syms[k+2]), Kind: bin.SymFunc,
		})
	}
	return b
}

// FuzzSweepRegions checks the assembled sweep against the whole-text
// reference on random text and random symbol tables: overlapping and
// zero-size symbols, symbols inside an instruction, last instructions
// straddling into the next symbol, undecodable and truncated bytes, and
// adrp/add and movz/movk pairs split across symbol boundaries. Each
// input is swept cold, and through a memo warmed on a copy whose text
// was mutated at the positions mut names, so unchanged functions come
// from the memo and changed ones are rescanned. Both must equal
// reference(b): hints, marker index, trust, corruption and padding.
func FuzzSweepRegions(f *testing.F) {
	// Tokens are [register, shape, operands...]; selector bits: ISA in
	// (sel&3)%3 (x64, ppc, a64), 4 = claims CFI, 8 = entries snap to markers.
	//
	// a64: adrp ends one function, its add starts the next.
	f.Add(uint8(2), []byte{0, 1, 0, 0, 1, 6, 0, 1, 7, 1, 0, 10}, []byte{0, 0, 12, 0, 12, 8}, []byte{})
	// ppc, CFI: movz ends one function, movk starts the next; the pair
	// points inside an instruction, and the second entry is unmarked.
	f.Add(uint8(1|4), []byte{0, 1, 2, 3, 0, 1, 0, 10}, []byte{0, 0, 8, 0, 8, 8}, []byte{5, 0x40})
	// x64: a 10-byte movimm with a symbol starting inside it, a
	// zero-size symbol, and a truncated movimm at the end.
	f.Add(uint8(0), []byte{0, 2, 0, 9, 0, 1, 0, 10, 0, 12, 3}, []byte{0, 0, 10, 0, 4, 8, 0, 11, 0}, []byte{12, 7})
	// x64, CFI, marked entries: a movimm and a data cell point inside
	// instructions at bytes that are not markers, so evidence is trusted.
	f.Add(uint8(4|8), []byte{0, 1, 0, 2, 0, 2, 0, 10, 0, 1, 0, 7, 1, 0, 10, 0, 13, 0, 5}, []byte{0, 0, 12, 0, 12, 14}, []byte{20, 3})
	// x64, CFI: a data cell points at a marker byte inside a movimm.
	f.Add(uint8(4|8), []byte{0, 1, 0, 2, 6, 2, 0, 10, 0, 13, 0, 3}, []byte{0, 0, 12}, []byte{})
	// x64: nop padding split by a zero-size symbol, and a gap that is not
	// padding.
	f.Add(uint8(0), []byte{0, 1, 0, 10, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 1, 0, 10}, []byte{0, 0, 2, 0, 4, 0, 0, 16, 2}, []byte{})
	// x64: the last instruction of a function straddles into a gap.
	f.Add(uint8(0), []byte{0, 1, 0, 10, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 1, 0, 10}, []byte{0, 0, 6, 0, 16, 2}, []byte{})
	// a64: a nop gap between two functions and a zero-size symbol.
	f.Add(uint8(2), []byte{0, 1, 0, 10, 0, 0, 0, 0, 0, 1, 0, 10, 0, 0}, []byte{0, 0, 8, 0, 16, 8, 0, 14, 0}, []byte{})
	f.Fuzz(func(t *testing.T, sel uint8, prog, syms, mut []byte) {
		all := arch.All()
		a := all[int(sel&3)%len(all)]
		cfi, snap := sel&4 != 0, sel&8 != 0
		b := fuzzBinary(a, prog, syms, cfi, snap)
		ref := reference(b)
		funcs := b.FuncSymbols()
		compareSweep(t, "cold", assemble(b, funcs, nil), ref, true)

		warm := b.Clone()
		text := warm.Text().MutableData()
		for k := 0; k+1 < len(mut); k += 2 {
			text[int(mut[k])%len(text)] ^= mut[k+1] | 1
		}
		memo := newMapMemo()
		assemble(warm, funcs, memo)
		compareSweep(t, "memo", assemble(b, funcs, memo), ref, true)
		compareSweep(t, "memo-again", assemble(b, funcs, memo), ref, true)
	})
}
