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

// InterleavedX64Binary wraps interleavedX64 as a one-function binary.
func InterleavedX64Binary() *bin.Binary {
	b, _ := rawFunc(arch.X64, interleavedX64())
	return b
}
