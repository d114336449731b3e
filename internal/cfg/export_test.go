package cfg

import (
	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
)

// Test hooks for the external cfg_test package.
var (
	DumpGraph      = dumpGraph
	MarkBoundedX64 = markBoundedX64
)

// BuildStripped builds a stripped binary's graph the way core.Analyze
// does: function entries are discovered first, then each function is
// built on its own and the graph assembled.
func BuildStripped(b *bin.Binary, resolver Resolver) (*Graph, error) {
	syms, err := DiscoverFunctions(b)
	if err != nil {
		return nil, err
	}
	pads, err := UnwindTable(b)
	if err != nil {
		return nil, err
	}
	funcs := make([]*Func, 0, len(syms))
	for _, sym := range syms {
		if sym.Size > 0 {
			funcs = append(funcs, BuildFunc(b, b.Text(), sym, pads, resolver))
		}
	}
	return Assemble(b, funcs), nil
}

// InterleavedX64Binary wraps interleavedX64 as a one-function binary.
func InterleavedX64Binary() *bin.Binary {
	b, _ := rawFunc(arch.X64, interleavedX64())
	return b
}
