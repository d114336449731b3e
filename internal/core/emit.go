package core

import (
	"fmt"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
)

// This file is the EMIT stage of the staged patch pipeline. Each
// function's unit is encoded through the per-arch arch.Emitter into its
// own window of one output buffer: every input the emitter sees —
// resolved targets, assigned addresses, expansion states — is captured
// in the unit's items. Every Patch encodes every unit: encoding straight
// into the window allocates nothing, which is cheaper than the
// signature hash a reuse check would need.

// emitUnit encodes one unit into its window of out and appends the
// unit's return-address pairs to ra in item order.
func (p *PatchPlan) emitUnit(u *planUnit, out []byte, ra []bin.AddrPair) ([]bin.AddrPair, error) {
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

// emit produces the .instr bytes, the return-address map (in unit
// order), and the clone section contents.
func (p *PatchPlan) emit() (out, cloneData []byte, raPairs []bin.AddrPair, encodedN int, err error) {
	a := p.an.Binary.Arch
	// The output buffer comes from the emit pool (see pool.go); it is
	// fully overwritten here — illegal-instruction fill end to end, then
	// each unit's window — so recycled contents can never leak through.
	out = getEmitBuf(int(p.instrEnd - p.instrBase))
	arch.FillIllegal(a, out) // unreachable alignment padding must not execute silently
	for _, u := range p.units {
		if raPairs, err = p.emitUnit(u, out, raPairs); err != nil {
			putEmitBuf(out)
			return nil, nil, nil, 0, err
		}
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
