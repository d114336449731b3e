package asm

import (
	"encoding/binary"
	"fmt"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/unwind"
)

// InterpPath is the program interpreter recorded in .interp; the loader
// refuses images whose .interp does not name it.
const InterpPath = "/lib64/ld-icfg.so.1"

// Link lays out the program, resolves every reference, and produces the
// binary plus the compiler's ground-truth debug information.
func (b *Builder) Link() (*bin.Binary, *DebugInfo, error) {
	if len(b.funcs) == 0 {
		return nil, nil, fmt.Errorf("asm: no functions")
	}
	enc := arch.ForArch(b.arch)
	dbg := &DebugInfo{FuncStart: map[string]uint64{}, FuncEnd: map[string]uint64{}}

	// Pass 1: finalise functions (prologue/epilogue, pseudo expansion)
	// and lay out .text.
	cursor := b.textBase
	var padRanges [][2]uint64
	for _, f := range b.funcs {
		f.finalize()
		aligned := align(cursor, 16)
		if aligned != cursor {
			padRanges = append(padRanges, [2]uint64{cursor, aligned})
		}
		cursor = aligned
		f.start = cursor
		addr := cursor
		for k := range f.slots {
			s := &f.slots[k]
			s.ins.Addr = addr
			if s.tableIx >= 0 && f.tables[s.tableIx].inText {
				tbl := f.tables[s.tableIx]
				tbl.addr = addr
				addr += uint64(tbl.style.EntrySize() * len(tbl.targets))
				continue
			}
			s.ins.EncLen = arch.EncLen(b.arch, s.ins)
			addr += uint64(s.ins.EncLen)
		}
		f.end = addr
		cursor = addr
		f.labelAddr = map[Label]uint64{}
		for l, idx := range f.binds {
			if idx < len(f.slots) {
				f.labelAddr[l] = f.slots[idx].ins.Addr
			} else {
				f.labelAddr[l] = f.end
			}
		}
		dbg.FuncStart[f.name] = f.start
		dbg.FuncEnd[f.name] = f.end
	}
	textEnd := cursor
	dbg.PadRanges = padRanges

	// A64 table styles: small functions get 1-byte entries.
	for _, f := range b.funcs {
		if b.arch != arch.A64 {
			break
		}
		for _, tbl := range f.tables {
			if f.end-f.start <= 255*4 {
				tbl.style = TableRel8
			} else {
				tbl.style = TableRel16
			}
			if tbl.loadSlot >= 0 {
				sz := uint8(tbl.style.EntrySize())
				f.slots[tbl.loadSlot].ins.Size = sz
				f.slots[tbl.loadSlot].ins.Scale = sz
			}
		}
	}

	// Pass 2: lay out .rodata (tables not embedded in text, plus blobs,
	// in insertion order) and .data (globals).
	rodataBase := align(textEnd, 0x1000)
	rcursor := rodataBase
	for i := range b.rodata {
		it := &b.rodata[i]
		al := it.align
		if it.table != nil {
			al = uint64(it.table.style.EntrySize())
			it.data = make([]byte, it.table.style.EntrySize()*len(it.table.targets))
		}
		if al == 0 {
			al = 1
		}
		rcursor = align(rcursor, al)
		if it.table != nil {
			it.table.addr = rcursor
		}
		it.addr = rcursor
		rcursor += uint64(len(it.data))
	}
	rodataEnd := rcursor

	dataBase := align(rodataEnd, 0x1000)
	dcursor := dataBase
	for _, g := range b.globals {
		dcursor = align(dcursor, 8)
		g.addr = dcursor
		dcursor += uint64(len(g.Init))
	}
	dataEnd := dcursor

	// Symbol resolution map.
	symAddr := map[string]uint64{}
	for _, f := range b.funcs {
		symAddr[f.name] = f.start
	}
	for _, g := range b.globals {
		symAddr[g.Name] = g.addr
	}
	for _, f := range b.funcs {
		for tix, tbl := range f.tables {
			symAddr[tableSymbol(f.name, tix)] = tbl.addr
		}
	}
	for i := range b.rodata {
		if it := &b.rodata[i]; it.table == nil && it.name != "" {
			symAddr[it.name] = it.addr
		}
	}

	// Pass 3: resolve refs and encode .text.
	text := make([]byte, textEnd-b.textBase)
	fillNops(b.arch, text)
	for _, f := range b.funcs {
		for k := range f.slots {
			s := &f.slots[k]
			if s.tableIx >= 0 && f.tables[s.tableIx].inText {
				tbl := f.tables[s.tableIx]
				if err := emitTable(tbl, text[tbl.addr-b.textBase:], symAddr, f); err != nil {
					return nil, nil, err
				}
				continue
			}
			if s.ref != nil {
				target, err := resolveRef(f, s.ref, symAddr)
				if err != nil {
					return nil, nil, err
				}
				patchRef(&s.ins, s.ref.mode, target)
			}
			bs, err := enc.Append(nil, s.ins)
			if err != nil {
				return nil, nil, fmt.Errorf("asm: %s at %#x in %s: %w", s.ins, s.ins.Addr, f.name, err)
			}
			copy(text[s.ins.Addr-b.textBase:], bs)
		}
	}

	// Encode .rodata.
	rodata := make([]byte, rodataEnd-rodataBase)
	for i := range b.rodata {
		it := &b.rodata[i]
		if it.table != nil {
			if err := emitTable(it.table, it.data, symAddr, it.table.fn); err != nil {
				return nil, nil, err
			}
		}
		copy(rodata[it.addr-rodataBase:], it.data)
	}

	// Encode .data, collecting runtime (and optionally link-time)
	// relocations for pointer cells.
	data := make([]byte, dataEnd-dataBase)
	var relocs, linkRelocs []bin.Reloc
	for _, g := range b.globals {
		copy(data[g.addr-dataBase:], g.Init)
		if g.PtrTo == "" {
			continue
		}
		target, ok := symAddr[g.PtrTo]
		if !ok {
			return nil, nil, fmt.Errorf("asm: pointer cell %s references unknown symbol %q", g.Name, g.PtrTo)
		}
		v := target + uint64(g.Addend)
		binary.LittleEndian.PutUint64(data[g.addr-dataBase:], v)
		if b.pie {
			relocs = append(relocs, bin.Reloc{Kind: bin.RelocRelative, Off: g.addr, Addend: int64(v)})
		}
		if b.keepLinkRelocs {
			linkRelocs = append(linkRelocs, bin.Reloc{Kind: bin.RelocAbs64, Off: g.addr, Addend: g.Addend, Sym: g.PtrTo})
		}
	}

	// Unwind table.
	var fdes []unwind.FDE
	for _, f := range b.funcs {
		fde := unwind.FDE{
			Start:     f.start,
			End:       f.end,
			FrameSize: uint64(f.frame),
			RAInLR:    b.arch.FixedWidth() && !f.hasCall,
		}
		for _, tr := range f.tries {
			if tr.endSlot < 0 {
				return nil, nil, fmt.Errorf("asm: unterminated try region in %s", f.name)
			}
			fde.Pads = append(fde.Pads, unwind.LandingPad{
				TryStart: f.slotAddr(tr.startSlot),
				TryEnd:   f.slotAddr(tr.endSlot),
				Pad:      f.labelAddr[tr.catch],
			})
		}
		fdes = append(fdes, fde)
	}
	ehFrame := unwind.NewTable(fdes).Encode()

	// Assemble the binary.
	out := bin.New(b.arch)
	out.PIE = b.pie
	out.SharedLib = b.shared
	for k, v := range b.meta {
		out.Meta[k] = v
	}
	out.TOCValue = rodataBase + 0x8000

	for _, s := range []*bin.Section{
		{Name: bin.SecText, Addr: b.textBase, Data: text, Flags: bin.FlagAlloc | bin.FlagExec, Align: 16},
		{Name: bin.SecRodata, Addr: rodataBase, Data: rodata, Flags: bin.FlagAlloc, Align: 8},
		{Name: bin.SecData, Addr: dataBase, Data: data, Flags: bin.FlagAlloc | bin.FlagWrite, Align: 8},
	} {
		if err := addSection(out, s); err != nil {
			return nil, nil, err
		}
	}

	cursor = align(dataEnd, 0x1000)
	addBlob := func(name string, payload []byte, flags bin.SectionFlags) error {
		s := &bin.Section{Name: name, Addr: cursor, Data: payload, Flags: flags, Align: 8}
		if err := addSection(out, s); err != nil {
			return err
		}
		cursor = align(s.End(), 0x100)
		return nil
	}
	if err := addBlob(bin.SecEhFrame, ehFrame, bin.FlagAlloc); err != nil {
		return nil, nil, err
	}

	// Dynamic-linking sections: encoded dynamic symbols, their string
	// table, and the runtime relocations. Their byte size matters — the
	// rewriter retires and reuses them as trampoline scratch space.
	dynSyms := b.dynSymbols(symAddr)
	dsBytes, strBytes := encodeDynSyms(dynSyms)
	if err := addBlob(bin.SecDynSym, dsBytes, bin.FlagAlloc); err != nil {
		return nil, nil, err
	}
	if err := addBlob(bin.SecDynStr, strBytes, bin.FlagAlloc); err != nil {
		return nil, nil, err
	}
	if err := addBlob(bin.SecRelaDyn, encodeRelocs(relocs), bin.FlagAlloc); err != nil {
		return nil, nil, err
	}

	if b.meta["go-runtime"] == "1" {
		var pcs []unwind.PCFunc
		for id, f := range b.funcs {
			pcs = append(pcs, unwind.PCFunc{Start: f.start, End: f.end, ID: uint32(id)})
		}
		if err := addBlob(bin.SecGoPCLN, unwind.NewPCTable(pcs).Encode(), bin.FlagAlloc); err != nil {
			return nil, nil, err
		}
	}
	if err := addBlob(bin.SecNote, encodeMeta(b.meta), bin.FlagAlloc); err != nil {
		return nil, nil, err
	}
	if !b.shared {
		// Program interpreter request, as in ET_EXEC/ET_DYN ELF images.
		// The loader validates it; BOLT's block-reordering bug corrupts
		// it in some binaries (Section 8.3).
		if err := addBlob(bin.SecInterp, []byte(InterpPath), bin.FlagAlloc); err != nil {
			return nil, nil, err
		}
	}

	for _, f := range b.funcs {
		out.Symbols = append(out.Symbols, bin.Symbol{Name: f.name, Addr: f.start, Size: f.end - f.start, Kind: bin.SymFunc, Global: true})
	}
	for _, g := range b.globals {
		out.Symbols = append(out.Symbols, bin.Symbol{Name: g.Name, Addr: g.addr, Size: uint64(len(g.Init)), Kind: bin.SymObject})
	}
	for i := range b.rodata {
		if it := &b.rodata[i]; it.table == nil && it.name != "" {
			out.Symbols = append(out.Symbols, bin.Symbol{Name: it.name, Addr: it.addr, Size: uint64(len(it.data)), Kind: bin.SymObject})
		}
	}
	for _, d := range dynSyms {
		out.DynSymbols = append(out.DynSymbols, d)
	}
	out.Relocs = relocs
	out.LinkRelocs = linkRelocs

	if !b.shared {
		entry, ok := symAddr[b.entry]
		if !ok {
			return nil, nil, fmt.Errorf("asm: entry function %q not defined", b.entry)
		}
		out.Entry = entry
	}

	// Ground truth tables for tests.
	for _, f := range b.funcs {
		for tix, tbl := range f.tables {
			info := TableInfo{
				Func:      f.name,
				Addr:      tbl.addr,
				Style:     tbl.style,
				EntrySize: tbl.style.EntrySize(),
				N:         len(tbl.targets),
				InText:    tbl.inText,
			}
			for _, l := range tbl.targets {
				info.Targets = append(info.Targets, f.labelAddr[l])
			}
			if tbl.dispatchSlot >= 0 {
				info.DispatchAddr = f.slots[tbl.dispatchSlot].ins.Addr
			}
			_ = tix
			dbg.Tables = append(dbg.Tables, info)
		}
	}

	if err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("asm: linked binary invalid: %w", err)
	}
	return out, dbg, nil
}

// addSection places one linker-laid-out section into the output image.
// Layout is cursor-driven and should never produce conflicts, but a
// builder bug (or a hand-constructed layout) must surface as a Link
// error, not a panic in library code.
func addSection(out *bin.Binary, s *bin.Section) error {
	if _, err := out.AddSection(s); err != nil {
		return fmt.Errorf("asm: linker section layout for %s: %w", s.Name, err)
	}
	return nil
}

// slotAddr returns the address of the slot at index k (or the function
// end for k == len(slots)).
func (f *FuncBuilder) slotAddr(k int) uint64 {
	if k < len(f.slots) {
		return f.slots[k].ins.Addr
	}
	return f.end
}

// finalize expands pseudo slots and prepends the prologue.
func (f *FuncBuilder) finalize() {
	a := f.b.arch
	fixed := a.FixedWidth()
	if fixed && f.hasCall && f.frame < 16 {
		f.frame = 16
	}

	var prologue []slot
	if f.b.cfi {
		// The landing pad must be the function's first instruction — an
		// indirect call lands exactly at the entry address.
		prologue = append(prologue, slot{ins: arch.Instr{Kind: arch.Mark}, tableIx: -1})
	}
	if fixed && f.hasCall {
		prologue = append(prologue, slot{ins: arch.Instr{Kind: arch.Store, Rs2: arch.LR, Rs1: arch.SP, Size: 8, Imm: -8}, tableIx: -1})
	}
	if f.frame > 0 {
		prologue = append(prologue, slot{ins: arch.Instr{Kind: arch.ALUImm, Op: arch.Sub, Rd: arch.SP, Rs1: arch.SP, Imm: f.frame}, tableIx: -1})
	}

	var epilogue []slot
	if f.frame > 0 {
		epilogue = append(epilogue, slot{ins: arch.Instr{Kind: arch.ALUImm, Op: arch.Add, Rd: arch.SP, Rs1: arch.SP, Imm: f.frame}, tableIx: -1})
	}
	if fixed && f.hasCall {
		epilogue = append(epilogue, slot{ins: arch.Instr{Kind: arch.Load, Rd: arch.LR, Rs1: arch.SP, Size: 8, Imm: -8}, tableIx: -1})
	}
	epilogue = append(epilogue, slot{ins: arch.Instr{Kind: arch.Ret}, tableIx: -1})

	shift := len(prologue)
	out := make([]slot, 0, len(f.slots)+shift+4)
	out = append(out, prologue...)
	// Track how slot indices move so label binds and try regions stay
	// attached to the right positions.
	newIndex := make([]int, len(f.slots)+1)
	for k := range f.slots {
		newIndex[k] = len(out)
		s := f.slots[k]
		if s.pseudo == pseudoRet {
			out = append(out, epilogue...)
			continue
		}
		out = append(out, s)
	}
	newIndex[len(f.slots)] = len(out)
	for l, idx := range f.binds {
		f.binds[l] = newIndex[idx]
	}
	for i := range f.tries {
		f.tries[i].startSlot = newIndex[f.tries[i].startSlot]
		f.tries[i].endSlot = newIndex[f.tries[i].endSlot]
	}
	for _, tbl := range f.tables {
		if tbl.loadSlot >= 0 {
			tbl.loadSlot = newIndex[tbl.loadSlot]
		}
		if tbl.dispatchSlot >= 0 {
			tbl.dispatchSlot = newIndex[tbl.dispatchSlot]
		}
	}
	f.slots = out
}

// resolveRef computes the absolute target address of a symbolic ref.
func resolveRef(f *FuncBuilder, r *ref, symAddr map[string]uint64) (uint64, error) {
	var base uint64
	switch {
	case r.sym != "":
		v, ok := symAddr[r.sym]
		if !ok {
			return 0, fmt.Errorf("asm: %s references undefined symbol %q", f.name, r.sym)
		}
		base = v
	case r.table >= 0:
		base = f.tables[r.table].addr
	case r.label >= 0:
		v, ok := f.labelAddr[r.label]
		if !ok {
			return 0, fmt.Errorf("asm: %s references unbound label %d", f.name, r.label)
		}
		base = v
	default:
		return 0, fmt.Errorf("asm: empty ref in %s", f.name)
	}
	return base + uint64(r.addend), nil
}

// patchRef applies the resolved target to the instruction's immediate.
func patchRef(ins *arch.Instr, mode refMode, target uint64) {
	switch mode {
	case refPC:
		ins.Imm = int64(target - ins.Addr)
	case refPage:
		ins.Imm = int64((target &^ 0xFFF) - (ins.Addr &^ 0xFFF))
	case refLo12:
		ins.Imm = int64(target & 0xFFF)
	case refAbs64:
		ins.Imm = int64(target)
	case refAbs16:
		ins.Imm = int64((target >> (16 * ins.Shift)) & 0xFFFF)
	}
}

// emitTable writes the table's entries into dst.
func emitTable(tbl *jumpTable, dst []byte, symAddr map[string]uint64, f *FuncBuilder) error {
	es := tbl.style.EntrySize()
	for k, l := range tbl.targets {
		target, ok := f.labelAddr[l]
		if !ok {
			return fmt.Errorf("asm: table in %s references unbound label %d", f.name, l)
		}
		switch tbl.style {
		case TableAbs64:
			binary.LittleEndian.PutUint64(dst[k*es:], target)
		case TableRel32:
			binary.LittleEndian.PutUint32(dst[k*es:], uint32(target-tbl.addr))
		case TableRel8, TableRel16:
			off := (target - f.start) / 4
			if tbl.style == TableRel8 {
				if off > 0xFF {
					return fmt.Errorf("asm: rel8 table entry overflow in %s (offset %d)", f.name, off)
				}
				dst[k] = byte(off)
			} else {
				if off > 0xFFFF {
					return fmt.Errorf("asm: rel16 table entry overflow in %s (offset %d)", f.name, off)
				}
				binary.LittleEndian.PutUint16(dst[k*2:], uint16(off))
			}
		}
	}
	return nil
}

// dynSymbols returns the dynamic symbol set: explicitly exported
// functions plus the entry function.
func (b *Builder) dynSymbols(symAddr map[string]uint64) []bin.Symbol {
	var out []bin.Symbol
	for _, f := range b.funcs {
		if b.exports[f.name] || f.name == b.entry {
			out = append(out, bin.Symbol{Name: f.name, Addr: f.start, Size: f.end - f.start, Kind: bin.SymFunc, Global: true})
		}
	}
	return out
}

// encodeDynSyms produces the .dynsym and .dynstr payloads: 24-byte
// entries referencing names in the string table.
func encodeDynSyms(syms []bin.Symbol) (dynsym, dynstr []byte) {
	dynstr = append(dynstr, 0)
	for _, s := range syms {
		nameOff := uint32(len(dynstr))
		dynstr = append(dynstr, s.Name...)
		dynstr = append(dynstr, 0)
		var e [24]byte
		binary.LittleEndian.PutUint64(e[0:], s.Addr)
		binary.LittleEndian.PutUint64(e[8:], s.Size)
		binary.LittleEndian.PutUint32(e[16:], nameOff)
		binary.LittleEndian.PutUint32(e[20:], 1)
		dynsym = append(dynsym, e[:]...)
	}
	return dynsym, dynstr
}

// encodeRelocs produces the .rela.dyn payload: 24-byte entries.
func encodeRelocs(relocs []bin.Reloc) []byte {
	out := make([]byte, 24*len(relocs))
	for k, r := range relocs {
		binary.LittleEndian.PutUint64(out[24*k:], r.Off)
		binary.LittleEndian.PutUint64(out[24*k+8:], uint64(r.Addend))
		binary.LittleEndian.PutUint32(out[24*k+16:], uint32(r.Kind))
	}
	return out
}

// encodeMeta serialises note metadata as key=value lines.
func encodeMeta(meta map[string]string) []byte {
	var out []byte
	// Deterministic order.
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	for _, k := range keys {
		out = append(out, k...)
		out = append(out, '=')
		out = append(out, meta[k]...)
		out = append(out, '\n')
	}
	return out
}

// fillNops fills a text buffer with the architecture's padding bytes.
func fillNops(a arch.Arch, buf []byte) {
	if a == arch.X64 {
		for i := range buf {
			buf[i] = 0x90
		}
		return
	}
	// Fixed-width nop encodes as four zero bytes.
	for i := range buf {
		buf[i] = 0
	}
}

// align rounds v up to the next multiple of a (a power of two or any
// positive integer).
func align(v, a uint64) uint64 {
	if a <= 1 {
		return v
	}
	return (v + a - 1) / a * a
}
