package core

import (
	"slices"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/cfg"
)

// cflSet computes the control-flow-landing block starts of one function
// for the given mode and variant (Section 4.2), sorted and
// deduplicated. A block is CFL when an incoming control flow edge is
// NOT rewritten:
//
//   - the function entry (indirect calls in dir/jt modes; calls from
//     unanalysable functions in every mode — entries therefore always
//     receive trampolines, which also keeps function-entry
//     instrumentation semantics);
//   - exception catch pads (the unwinder transfers to original
//     addresses in every mode; RA translation does not change where
//     landing pads are);
//   - jump-table target blocks in dir mode (jt and func-ptr clone the
//     tables, removing these CFL blocks — the paper's incremental
//     reduction).
//
// Call fall-through blocks are never CFL here because runtime RA
// translation replaces call emulation (Section 6): relocated calls push
// relocated return addresses, so returns stay in relocated code. The
// ablation variants add their own: emulated x64 calls return to the
// original fall-through blocks, and TrampolineEveryBlock makes every
// block CFL.
func cflSet(b *bin.Binary, f *cfg.Func, mode Mode, v Variant) []uint64 {
	cfl := []uint64{f.Entry}
	if b.UsesExceptions() {
		cfl = append(cfl, f.CatchPads...)
	}
	if mode == ModeDir {
		for _, ij := range f.IndirectJumps {
			if ij.Table != nil {
				cfl = append(cfl, ij.Table.Targets...)
			}
		}
	}
	if v.CallEmulation && b.Arch == arch.X64 {
		for _, blk := range f.Blocks {
			if blk.Last().IsCall() && blk.Last().Kind != arch.CallIndMem {
				cfl = append(cfl, blk.End)
			}
		}
	}
	if v.TrampolineEveryBlock {
		for _, blk := range f.Blocks {
			cfl = append(cfl, blk.Start)
		}
	}
	slices.Sort(cfl)
	return slices.Compact(cfl)
}

// superblock is one trampoline installation site: a CFL block extended
// over the scratch blocks that follow it (Section 4.1, "Trampoline
// Superblock"). Space is the number of original code bytes the
// trampoline may overwrite.
type superblock struct {
	Block *cfg.Block
	Start uint64
	Space int
}

// superblocks computes the trampoline superblocks of one function from
// its sorted CFL set: every non-CFL block is a scratch block ("the key
// observation"), so each CFL block extends to the next CFL block start,
// bounded by in-function data (embedded jump tables, which relocated
// code may still read) and the function end.
func superblocks(f *cfg.Func, cfl []uint64) []superblock {
	out := make([]superblock, 0, len(cfl))
	for i, start := range cfl {
		blk, ok := f.BlockAt(start)
		if !ok {
			// A CFL address with no block (e.g. a catch pad in dead
			// code); fall back to the containing block boundary.
			if cb, okc := f.BlockContaining(start); okc {
				blk = cb
			} else {
				continue
			}
		}
		limit := f.End
		if i+1 < len(cfl) && cfl[i+1] < limit {
			limit = cfl[i+1]
		}
		for _, dr := range f.DataRanges {
			if dr[0] >= start && dr[0] < limit {
				limit = dr[0]
			}
		}
		out = append(out, superblock{Block: blk, Start: start, Space: int(limit - start)})
	}
	return out
}

// scratchPool allocates scratch space for multi-hop trampolines from
// the three sources of Section 7: alignment padding bytes, unused
// superblock space, and retired dynamic-linking sections.
type scratchPool struct {
	ranges []scratchRange
	align  uint64
	// harvested totals every byte ever contributed, for the metrics
	// layer (total() reports what is still free).
	harvested uint64
}

type scratchRange struct{ start, end uint64 }

func newScratchPool(align uint64) *scratchPool {
	return &scratchPool{align: align}
}

// add contributes a free range.
func (p *scratchPool) add(start, end uint64) {
	start = alignUp(start, p.align)
	if end > start {
		p.ranges = append(p.ranges, scratchRange{start, end})
		p.harvested += end - start
	}
}

// alloc finds n bytes whose start lies within [near-maxBack, near+maxFwd]
// and returns the address, removing the space from the pool.
func (p *scratchPool) alloc(n int, near uint64, maxBack, maxFwd int64) (uint64, bool) {
	for i := range p.ranges {
		r := &p.ranges[i]
		if r.end-r.start < uint64(n) {
			continue
		}
		cand := r.start
		diff := int64(cand - near)
		if diff < -maxBack || diff > maxFwd {
			continue
		}
		r.start = alignUp(cand+uint64(n), p.align)
		if r.start > r.end {
			r.start = r.end
		}
		return cand, true
	}
	return 0, false
}

// total returns the bytes currently available.
func (p *scratchPool) total() uint64 {
	var n uint64
	for _, r := range p.ranges {
		n += r.end - r.start
	}
	return n
}

func alignUp(v, a uint64) uint64 {
	if a <= 1 {
		return v
	}
	return (v + a - 1) / a * a
}
