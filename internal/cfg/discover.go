package cfg

import (
	"fmt"
	"sort"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
)

// DiscoverFunctions recovers function entry points from a stripped
// binary, the way Dyninst's parser does when no symbol table survives
// (the real libcuda.so from the paper's Section 9 is stripped). Entry
// evidence, in decreasing reliability:
//
//   - the program entry point;
//   - direct call targets found by linearly decoding the code section;
//   - code addresses in runtime relocations (function pointers in PIE);
//   - 8-byte data cells holding instruction-aligned code addresses
//     (position dependent function pointer tables).
//
// Function extents run from each entry to the next discovered entry,
// with trailing nop padding trimmed. The result is a synthesised symbol
// table (names fn_<addr>) that BuildFunc accepts like a real one.
func DiscoverFunctions(b *bin.Binary) ([]bin.Symbol, error) {
	text := b.Text()
	if text == nil {
		return nil, fmt.Errorf("cfg: binary has no text section")
	}
	entries := map[uint64]bool{}
	add := func(a uint64) {
		if text.Contains(a) && a%b.Arch.InstrAlign() == 0 {
			entries[a] = true
		}
	}
	if !b.SharedLib {
		add(b.Entry)
	}
	for _, sym := range b.DynSymbols {
		if sym.Kind == bin.SymFunc {
			add(sym.Addr)
		}
	}
	// Direct call targets from a linear sweep.
	arch.Walk(b.Arch, text.Data, text.Addr, func(ins arch.Instr) bool {
		if ins.Kind == arch.Call {
			if t, ok := ins.Target(); ok {
				add(t)
			}
		}
		return true
	})
	// Function pointers via relocations.
	for _, rl := range b.Relocs {
		if rl.Kind == bin.RelocRelative {
			add(uint64(rl.Addend))
		}
	}
	// Function pointers in initialised data.
	if data := b.Section(bin.SecData); data != nil {
		for off := uint64(0); off+8 <= data.Size(); off += 8 {
			var v uint64
			for i := uint64(0); i < 8; i++ {
				v |= uint64(data.Data[off+i]) << (8 * i)
			}
			add(v)
		}
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("cfg: no function entries discovered")
	}

	sorted := make([]uint64, 0, len(entries))
	for a := range entries {
		sorted = append(sorted, a)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	var out []bin.Symbol
	for i, start := range sorted {
		end := text.End()
		if i+1 < len(sorted) {
			end = sorted[i+1]
		}
		// Trim trailing nop padding off the extent.
		end = trimNops(b.Arch, text, start, end)
		if end <= start {
			continue
		}
		out = append(out, bin.Symbol{
			Name: fmt.Sprintf("fn_%x", start),
			Addr: start,
			Size: end - start,
			Kind: bin.SymFunc,
		})
	}
	return out, nil
}

// trimNops shrinks [start,end) past any trailing nop run.
func trimNops(a arch.Arch, text *bin.Section, start, end uint64) uint64 {
	last := start
	arch.Walk(a, text.Data[start-text.Addr:end-text.Addr], start, func(i arch.Instr) bool {
		if i.Kind != arch.Nop {
			last = i.Addr + uint64(i.EncLen)
		}
		return true
	})
	return last
}
