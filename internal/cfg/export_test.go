package cfg

import (
	"errors"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
)

// Test hooks for the external cfg_test package.
var (
	DumpGraph      = dumpGraph
	MarkBoundedX64 = markBoundedX64
)

// BuildGraph builds b's graph the way core.Analyze does without a unit
// store: the function table (the symbols, or the discovered entries of a
// stripped binary), one BuildFunc per function, then Assemble. A nil
// resolver leaves every indirect jump unresolved.
func BuildGraph(b *bin.Binary, resolver Resolver) (*Graph, error) {
	text := b.Text()
	if text == nil {
		return nil, errors.New("cfg: binary has no text section")
	}
	syms := b.FuncSymbols()
	if len(syms) == 0 {
		ds, err := DiscoverFunctions(b)
		if err != nil {
			return nil, err
		}
		syms = ds
	}
	pads, err := UnwindTable(b)
	if err != nil {
		return nil, err
	}
	funcs := make([]*Func, 0, len(syms))
	for _, sym := range syms {
		if sym.Size > 0 {
			funcs = append(funcs, BuildFunc(b, text, sym, pads, resolver))
		}
	}
	return Assemble(b, funcs), nil
}

// InterleavedX64Binary wraps interleavedX64 as a one-function binary.
func InterleavedX64Binary() *bin.Binary {
	b, _ := rawFunc(arch.X64, interleavedX64())
	return b
}
