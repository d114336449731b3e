package core

import (
	"fmt"
	"math"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
)

// This file is the LAYOUT stage of the staged patch pipeline: a
// deterministic, arch-parameterized but encoding-free address
// assignment over the PatchPlan. It plans where every new and moved
// section lands, places cloned tables, and iterates per-item address
// assignment with range checking to a fixpoint — growing items into
// islands, adrp pairs, and veneers through the emitter's ExpandedLen,
// never through actual encoding. After layout, every item has a final
// (newAddr, newLen) and every resolved target is a pure function of the
// plan, so the emit stage only encodes.

// sectionMove relocates one dynamic-linking section, retiring the
// original range as trampoline scratch space (Section 3).
type sectionMove struct {
	name    string
	addr    uint64 // new address
	oldAddr uint64
	oldEnd  uint64
	scratch bool // donate the retired range to the scratch pool
}

// sectionPlan is the read-only address plan for the rewrite's new and
// moved sections; it is computed from the input binary without cloning
// or mutating it, so PlanFor can produce a full plan for inspection.
type sectionPlan struct {
	moves     []sectionMove
	cloneBase uint64
	instrBase uint64
}

// layoutAll runs the whole layout stage: section planning, clone
// placement, then the item-address fixpoint.
func (p *PatchPlan) layoutAll(opts Options) error {
	p.planSections(opts)
	p.placeClones(p.sections.cloneBase)
	return p.layout(p.sections.instrBase)
}

// planSections assigns addresses to the counter region, the moved
// dynamic-linking sections, the clone section, and .instr — the same
// arithmetic the serial rewriter interleaved with binary mutation, now
// computed up front from the input binary alone.
func (p *PatchPlan) planSections(opts Options) {
	b := p.an.Binary
	// Selector cells sit directly above the counter region ([selBase,
	// selEnd)); without variants selEnd == nextCell and the arithmetic
	// is bit-identical to an unguided plan.
	cursor := alignUp(p.selEnd, sectionGap) + sectionGap
	for _, name := range []string{bin.SecDynSym, bin.SecDynStr, bin.SecRelaDyn} {
		old := b.Section(name)
		if old == nil {
			continue
		}
		mv := sectionMove{
			name:    name,
			addr:    cursor,
			oldAddr: old.Addr,
			oldEnd:  old.End(),
			scratch: old.Size() > 0 && !opts.Variant.NoScratchSections,
		}
		p.sections.moves = append(p.sections.moves, mv)
		cursor = alignUp(cursor+old.Size(), sectionGap) + sectionGap
	}
	p.sections.cloneBase = cursor
	cursor = alignUp(cursor+p.cloneBytes(), sectionGap) + sectionGap
	p.sections.instrBase = alignUp(cursor+opts.InstrGap, sectionGap)
}

// cloneBytes returns the total size of the clone section.
func (p *PatchPlan) cloneBytes() uint64 {
	var n uint64
	for _, c := range p.clones {
		n = alignUp(n, uint64(c.newEntry)) + uint64(c.newEntry*c.tbl.Count)
	}
	return n
}

// placeClones assigns clone addresses inside the clone section.
func (p *PatchPlan) placeClones(base uint64) {
	addr := base
	for _, c := range p.clones {
		addr = alignUp(addr, uint64(c.newEntry))
		c.addr = addr
		addr += uint64(c.newEntry * c.tbl.Count)
	}
}

// relocTable maps original .text addresses to relocated ones without
// hashing. It is indexed by the address's offset into .text and stores
// the relocated address's offset into .instr plus one, so a zero slot
// means "not relocated".
type relocTable struct {
	text, instr uint64 // .text and .instr start addresses
	slot        []uint32
}

// claim maps addr to newAddr unless an earlier item already claimed
// addr: the first claim wins, which is how a dispatch stub or hoisted
// landing-pad marker owns its address ahead of the body's own copy.
func (t *relocTable) claim(addr, newAddr uint64) error {
	off, rel := addr-t.text, newAddr-t.instr+1
	if off >= uint64(len(t.slot)) || rel > math.MaxUint32 {
		return fmt.Errorf("core: relocation %#x -> %#x falls outside .text or .instr", addr, newAddr)
	}
	if t.slot[off] == 0 {
		t.slot[off] = uint32(rel)
	}
	return nil
}

// get returns addr's relocated address. Addresses outside .text, even
// those below it whose offset wraps around, are never relocated.
func (t *relocTable) get(addr uint64) (uint64, bool) {
	if off := addr - t.text; off < uint64(len(t.slot)) && t.slot[off] != 0 {
		return t.instr + uint64(t.slot[off]) - 1, true
	}
	return 0, false
}

// resolveTarget returns the item's concrete target address under the
// current relocation tables.
func (p *PatchPlan) resolveTarget(it *planItem) uint64 {
	switch it.tk {
	case tkAbs:
		return it.target
	case tkLocal:
		// Fast-body control flow prefers the fast-body copy; targets the
		// fast body does not carry (none today — every block is copied)
		// fall back to the full body, then the original.
		if na, ok := p.fastReloc.get(it.target); ok {
			return na
		}
		fallthrough
	case tkMapped:
		if na, ok := p.reloc.get(it.target); ok {
			return na
		}
		return it.target // not relocated: keep the original address
	case tkClone:
		return p.clones[it.target].addr
	case tkFuncBase:
		return p.clones[it.target].unit.start
	case tkVarEntry:
		return p.varAddr[it.target]
	default:
		return 0
	}
}

// layout iterates address assignment and range checking to a fixpoint,
// growing items into islands/pairs/veneers as needed. The relocation
// tables are allocated once and cleared between iterations (typically
// two or three); unit starts live on the units, so nothing is hashed.
func (p *PatchPlan) layout(instrBase uint64) error {
	p.instrBase = instrBase
	a := p.an.Binary.Arch
	text := p.an.Binary.Text()
	p.reloc = relocTable{text: text.Addr, instr: instrBase, slot: make([]uint32, text.Size())}
	if len(p.varAddr) > 0 {
		p.fastReloc = p.reloc
		p.fastReloc.slot = make([]uint32, len(p.reloc.slot))
	}
	for iter := 0; iter < 24; iter++ {
		addr := instrBase
		clear(p.reloc.slot)
		clear(p.fastReloc.slot)
		for _, u := range p.units {
			addr = alignUp(addr, instrAlign)
			u.start = addr
			claims := &p.reloc
			for i := range u.items {
				if i == u.fastStart {
					claims = &p.fastReloc
				}
				it := &u.items[i]
				it.newAddr = addr
				it.newLen = int32(p.emitter.ExpandedLen(p.env, it.ins, it.expand))
				if it.claim != 0 {
					if err := claims.claim(it.claim, addr); err != nil {
						return err
					}
				}
				addr += uint64(it.newLen)
			}
			if u.varSlot >= 0 {
				// The alternate variant enters at its restore item; the
				// stub's tkVarEntry branch resolves through this slot.
				p.varAddr[u.varSlot] = u.items[u.fastStart].newAddr
			}
		}
		p.instrEnd = addr

		changed := false
		for _, u := range p.units {
			for i := range u.items {
				it := &u.items[i]
				if it.expand == arch.ExpandEmulCall && a.FixedWidth() {
					t := p.resolveTarget(it)
					if abs64(int64(t-it.newAddr)) > arch.DirectBranchRange(a) {
						it.expand = arch.ExpandEmulCallFar
						changed = true
					}
					continue
				}
				if it.tk == tkNone || it.pf != arch.FormPCRel || it.expand != arch.ExpandNone {
					continue
				}
				t := p.resolveTarget(it)
				disp := int64(t - it.newAddr)
				switch it.ins.Kind {
				case arch.BranchCond:
					if abs64(disp) > arch.CondBranchRange(a) {
						it.expand = arch.ExpandCondIsland
						changed = true
					}
				case arch.Branch:
					if abs64(disp) > arch.DirectBranchRange(a) {
						if !a.FixedWidth() {
							return fmt.Errorf("core: branch at %#x cannot reach %#x", it.newAddr, t)
						}
						it.expand = arch.ExpandFarBranch
						changed = true
					}
				case arch.Call:
					if abs64(disp) > arch.CallRange(a) {
						if !a.FixedWidth() {
							return fmt.Errorf("core: call at %#x cannot reach %#x", it.newAddr, t)
						}
						it.expand = arch.ExpandFarCall
						changed = true
					}
				case arch.Lea:
					if abs64(disp) > arch.LeaRange(a) {
						if !a.FixedWidth() {
							return fmt.Errorf("core: lea at %#x cannot reach %#x", it.newAddr, t)
						}
						it.expand = arch.ExpandLeaPair
						changed = true
					}
				case arch.LoadPC:
					limit := int64(1<<31 - 1)
					if a.FixedWidth() {
						limit = 1<<18 - 1
					}
					if abs64(disp) > limit {
						return fmt.Errorf("core: pc-relative load at %#x cannot reach %#x", it.newAddr, t)
					}
				}
			}
		}
		if !changed {
			return nil
		}
	}
	return fmt.Errorf("core: relocation layout did not converge")
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
