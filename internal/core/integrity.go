package core

import (
	"fmt"

	"icfgpatch/internal/bin"
	"icfgpatch/internal/cfg"
)

// CheckIntegrity statically verifies the paper's Instrumentation
// Integrity property (Section 4.1) for one function of a rewritten
// binary:
//
//	for every CFL block b1 and instrumented block b2, every control
//	flow path from b1 to b2 passes at least one trampoline.
//
// The checker walks the ORIGINAL CFG from every CFL block, stopping at
// blocks whose start carries a trampoline; reaching an instrumented
// block without crossing one is a violation. It is an independent
// validator of the placement computed by Rewrite (used by tests, and by
// anyone modifying the placement — e.g. implementing the paper's
// suggested dominator-based refinement).
func CheckIntegrity(f *cfg.Func, cflBlocks []uint64, trampolines, instrumented map[uint64]bool) error {
	for _, start := range cflBlocks {
		if trampolines[start] {
			continue // intercepted immediately on landing
		}
		// Walk forward without crossing trampolines.
		seen := map[uint64]bool{}
		stack := []uint64{start}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[cur] {
				continue
			}
			seen[cur] = true
			if instrumented[cur] {
				return fmt.Errorf("core: integrity violation in %s: CFL block %#x reaches instrumented block %#x without a trampoline",
					f.Name, start, cur)
			}
			blk, ok := f.BlockAt(cur)
			if !ok {
				continue
			}
			for _, e := range blk.Succs {
				if !trampolines[e.To] {
					stack = append(stack, e.To)
				}
			}
		}
	}
	return nil
}

// PlacementReport captures the rewrite's placement decisions for one
// function, for integrity checking and diagnostics.
type PlacementReport struct {
	Func        *cfg.Func
	CFL         []uint64 // sorted CFL block starts (cflSet)
	Trampolines map[uint64]bool
	// Instrumented marks the block starts carrying payload snippets.
	Instrumented map[uint64]bool
}

// AuditPlacement recomputes the rewrite's placement for every
// instrumentable function of the binary and checks integrity. It mirrors
// the decisions Rewrite makes (same CFG construction, the same CFL
// builder, trampolines at every CFL block) so tests can assert the
// property against an independent path through the code.
func AuditPlacement(b *bin.Binary, g *cfg.Graph, opts Options) error {
	for _, f := range g.Funcs {
		if !f.Instrumentable() || !opts.Request.Wants(f.Name) || len(f.Blocks) == 0 {
			continue
		}
		cfl := cflSet(b, f, opts.Mode, opts.Variant)
		tramps := map[uint64]bool{}
		for _, a := range cfl {
			tramps[a] = true
		}
		inst := map[uint64]bool{}
		for _, blk := range f.Blocks {
			inst[blk.Start] = true // block-level instrumentation
		}
		report := PlacementReport{Func: f, CFL: cfl, Trampolines: tramps, Instrumented: inst}
		if err := CheckIntegrity(report.Func, report.CFL, report.Trampolines, report.Instrumented); err != nil {
			return err
		}
	}
	return nil
}
