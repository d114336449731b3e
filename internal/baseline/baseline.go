// Package baseline implements three of the binary rewriting approaches
// the paper compares against (Table 1), as ablations or wrappers of the
// same engine that implements incremental CFG patching:
//
//   - SRBI: structured binary editing — direct control flow only,
//     trampolines at every basic block, call emulation for stack
//     unwinding (with Dyninst-10.2's limitations).
//   - IRLower: Egalito/RetroWrite-style IR lowering — complete analysis
//     of indirect control flow using runtime relocations, all-or-nothing,
//     regenerated text, near-zero overhead, but no exceptions/Go/Rust.
//   - BOLT-like: a binary optimizer that requires link-time relocations
//     for function reordering.
//
// E9Patch-style instruction patching is Table 1's fourth comparison; it
// appears there as a qualitative row only, since no experiment runs it.
package baseline

import "icfgpatch/internal/bin"

// retargetSymbols rewrites function symbol addresses through the
// rewrite's relocation lookup (core.Result.Relocated) after the regenerated code replaced the original text
// (symbols whose code was dropped entirely are removed). Both the
// IR-lowering and BOLT-like baselines regenerate their symbol tables.
func retargetSymbols(nb *bin.Binary, relocated func(uint64) (uint64, bool)) {
	kept := nb.Symbols[:0]
	for _, sym := range nb.Symbols {
		if sym.Kind != bin.SymFunc {
			kept = append(kept, sym)
			continue
		}
		if na, ok := relocated(sym.Addr); ok {
			sym.Addr = na
			kept = append(kept, sym)
		}
	}
	nb.Symbols = kept
	dyn := nb.DynSymbols[:0]
	for _, sym := range nb.DynSymbols {
		if na, ok := relocated(sym.Addr); ok || sym.Kind != bin.SymFunc {
			if ok {
				sym.Addr = na
			}
			dyn = append(dyn, sym)
		}
	}
	nb.DynSymbols = dyn
}

// Table1Row is one row of the paper's Table 1 comparison.
type Table1Row struct {
	Approach   string
	Rewrites   string // types of control flow rewritten
	Relocation string // relocation entries required
	Unmodified string // handling of unmodified control flow
	Unwinding  string // stack unwinding support
}

// Table1 returns the qualitative comparison of rewriting approaches
// (paper Table 1).
func Table1() []Table1Row {
	return []Table1Row{
		{"BOLT", "", "Link time", "", "Update DWARF"},
		{"Egalito", "Indirect", "Run time", "NA", "NA"},
		{"E9Patch", "No", "None", "Patching", "NA"},
		{"Multiverse", "Direct", "None", "Dynamic translation", "Call emulation"},
		{"RetroWrite", "Indirect", "Run time", "NA", "NA"},
		{"SRBI", "Direct", "None", "Patching", "Call emulation"},
		{"Our work", "Indirect", "None", "Patching", "Dynamic translation"},
	}
}
