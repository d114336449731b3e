package analysis

import (
	"icfgpatch/internal/bin"
	"icfgpatch/internal/cfg"
)

// Hints returns the resolver's jump-table boundary hints.
func Hints(jt *JumpTables) []uint64 { return jt.boundaries }

// newJumpTables sweeps b's text cut along its symbol table, with no
// memo and no evidence, and returns the jump-table resolver.
func newJumpTables(b *bin.Binary) *JumpTables {
	jt, _, _ := SweepFuncs(b, SweepInput{Funcs: b.FuncSymbols()})
	return jt
}

// buildGraph builds b's graph the way core.Analyze does without a unit
// store: one cfg.BuildFunc per function symbol, then cfg.Assemble.
func buildGraph(b *bin.Binary, resolver cfg.Resolver) (*cfg.Graph, error) {
	pads, err := cfg.UnwindTable(b)
	if err != nil {
		return nil, err
	}
	var funcs []*cfg.Func
	for _, sym := range b.FuncSymbols() {
		if sym.Size > 0 {
			funcs = append(funcs, cfg.BuildFunc(b, b.Text(), sym, pads, resolver))
		}
	}
	return cfg.Assemble(b, funcs), nil
}
