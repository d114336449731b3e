package core

import "sync"

// This file is the hot-path allocation discipline for the staged patch
// pipeline (DESIGN.md §11). The warm service loop runs Patch thousands
// of times against one cached Analysis. The pools recycle plan item
// slabs (one per plan, which its units slice into), which die with the
// Patch call, and emit buffers, which die at the caller's explicit
// Result.Recycle. The relocation table is not pooled: the Result keeps
// it to answer Relocated.
//
// Safety rules, enforced by the differential fuzzer's byte-equivalence
// checks (FuzzDifferentialRewrite):
//
//   - planItem is pointer-free (arch.Instr holds only scalars), so a
//     recycled slab cannot keep dead objects alive, and every item is
//     appended zeroed and filled in place.
//   - pooled emit buffers are fully overwritten before use: the .instr
//     buffer is pre-filled with illegal instructions end to end, and the
//     clone buffer is cleared (its alignment gaps must read as zero).

// itemSlabPool recycles plan-wide planItem slabs across Patch calls.
// Plans vary in size, so callers fall back to a fresh allocation when a
// recycled slab is too small and put the recycled one back for a
// smaller plan.
var itemSlabPool = sync.Pool{}

// getItemSlab returns an empty planItem slice with at least capHint
// capacity, recycled when possible.
func getItemSlab(capHint int) []planItem {
	if v := itemSlabPool.Get(); v != nil {
		s := v.([]planItem)
		if cap(s) >= capHint {
			return s[:0]
		}
		// Too small for this unit: recycle it for a smaller one and
		// allocate at the requested size.
		itemSlabPool.Put(v)
	}
	return make([]planItem, 0, capHint)
}

// putItemSlab returns a slab to the pool. Callers must not touch the
// slice afterwards.
func putItemSlab(s []planItem) {
	if cap(s) == 0 {
		return
	}
	itemSlabPool.Put(s[:0]) //nolint:staticcheck // slices are intentionally stored by value
}

// emitBufPool recycles the emit stage's output buffers (.instr bytes
// and clone-section contents). These escape into the Result's sections,
// so they return to the pool only through Result.Recycle — callers that
// keep the rewritten binary simply never recycle, and the buffers stay
// ordinary garbage-collected memory.
var emitBufPool = sync.Pool{}

// getEmitBuf returns a byte slice of length n whose contents are
// UNSPECIFIED — callers must overwrite every byte (or clearEmitBuf it).
func getEmitBuf(n int) []byte {
	if v := emitBufPool.Get(); v != nil {
		b := v.([]byte)
		if cap(b) >= n {
			return b[:n]
		}
		emitBufPool.Put(v)
	}
	return make([]byte, n)
}

// putEmitBuf returns an emit buffer to the pool.
func putEmitBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	emitBufPool.Put(b[:0]) //nolint:staticcheck // slices are intentionally stored by value
}

// release returns the plan's pooled memory: the item slab. A unit
// whose items outgrew its window holds its own array, which is left to
// the collector. Called by Patch once the emit stage has run (nothing
// downstream reads items); PlanFor plans skip it so Dump can render
// them.
func (p *PatchPlan) release() {
	putItemSlab(p.slab)
	p.slab = nil
	for _, u := range p.units {
		u.items = nil
	}
}
