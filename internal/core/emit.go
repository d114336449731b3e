package core

import (
	"fmt"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
)

// This file is the EMIT stage of the staged patch pipeline. Each
// function's unit is encoded independently through the per-arch
// arch.Emitter: every input the emitter sees — resolved targets,
// assigned addresses, expansion states — is captured in the unit's
// items, so units encode on a bounded worker pool into disjoint windows
// of one output buffer and the merge is deterministic whatever the
// worker count. Every Patch encodes every unit: encoding straight into
// the window allocates nothing, which is cheaper than the signature
// hash a reuse check would need.

// emitUnit encodes one unit into its window of out and returns the
// unit's return-address pairs in item order.
func (p *PatchPlan) emitUnit(u *planUnit, out []byte) (ra []bin.AddrPair, err error) {
	for i := range u.items {
		it := &u.items[i]
		eit := arch.EmitItem{
			Ins:       it.ins,
			HasTarget: it.tk != tkNone,
			Form:      it.pf,
			Target:    p.resolveTarget(it),
			Expand:    it.expand,
			NewAddr:   it.newAddr,
			NewLen:    int(it.newLen),
			OrigAddr:  it.ins.Addr,
			OrigLen:   it.ins.EncLen,
		}
		off := it.newAddr - p.instrBase
		if _, err := arch.EmitInto(p.emitter, p.env, eit, out[off:off+uint64(it.newLen)]); err != nil {
			return nil, fmt.Errorf("core: emitting %s: %w", u.fn.Name, err)
		}
		switch it.ra {
		case raCallRet:
			ra = append(ra, bin.AddrPair{
				From: it.newAddr + uint64(it.newLen),
				To:   it.ins.Addr + uint64(it.ins.EncLen),
			})
		case raSelf:
			ra = append(ra, bin.AddrPair{From: it.newAddr, To: it.ins.Addr})
		}
	}
	return ra, nil
}

// emit produces the .instr bytes, the return-address map, and the clone
// section contents. Units emit into disjoint windows on up to jobs
// workers; the RA pairs and any error are merged in unit order, so the
// result is byte-for-byte independent of the worker count.
func (p *PatchPlan) emit(jobs int) (out, cloneData []byte, raPairs []bin.AddrPair, encodedN int, err error) {
	a := p.an.Binary.Arch
	// The output buffer comes from the emit pool (see pool.go); it is
	// fully overwritten here — illegal-instruction fill end to end, then
	// each unit's window — so recycled contents can never leak through.
	out = getEmitBuf(int(p.instrEnd - p.instrBase))
	arch.FillIllegal(a, out) // unreachable alignment padding must not execute silently
	unitRA := make([][]bin.AddrPair, len(p.units))
	errs := make([]error, len(p.units))
	runIndexed(len(p.units), jobs, func(i int) {
		unitRA[i], errs[i] = p.emitUnit(p.units[i], out)
	})
	for _, e := range errs {
		if e != nil {
			putEmitBuf(out)
			return nil, nil, nil, 0, e
		}
	}
	for i, u := range p.units {
		raPairs = append(raPairs, unitRA[i]...)
		if len(u.items) > 0 {
			encodedN++
		}
	}

	// Clone contents: solve tar(x) = relocated target for each entry.
	if len(p.clones) > 0 {
		var base, end uint64
		base = p.clones[0].addr
		last := p.clones[len(p.clones)-1]
		end = last.addr + uint64(last.newEntry*last.tbl.Count)
		// Pooled like out, but alignment gaps between clones must read
		// as zero, so the recycled buffer is cleared first.
		cloneData = getEmitBuf(int(end - base))
		clear(cloneData)
		for _, c := range p.clones {
			// The clone's entries are relative to the clone itself and to
			// the owner's relocated start.
			tbl := *c.tbl
			tbl.TableAddr, tbl.FuncStart = c.addr, c.unit.start
			for k, origTarget := range c.tbl.Targets {
				nt, ok := p.reloc.get(origTarget)
				if !ok {
					putEmitBuf(out)
					putEmitBuf(cloneData)
					return nil, nil, nil, 0, fmt.Errorf("core: clone target %#x has no relocation", origTarget)
				}
				x := tbl.EncodeEntry(nt)
				off := c.addr - base + uint64(k*c.newEntry)
				for i := 0; i < c.newEntry; i++ {
					cloneData[off+uint64(i)] = byte(x >> (8 * i))
				}
			}
		}
	}
	return out, cloneData, raPairs, encodedN, nil
}
