package analysis

import "icfgpatch/internal/bin"

// Hints returns the resolver's jump-table boundary hints.
func Hints(jt *JumpTables) []uint64 { return jt.boundaries }

// newJumpTables sweeps b's text cut along its symbol table, with no
// memo and no evidence, and returns the jump-table resolver.
func newJumpTables(b *bin.Binary) *JumpTables {
	jt, _, _ := SweepFuncs(b, SweepInput{Funcs: b.FuncSymbols()})
	return jt
}
