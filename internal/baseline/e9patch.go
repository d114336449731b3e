package baseline

import (
	"fmt"
	"sort"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/core"
)

// InstrPatchResult summarises an instruction-patching run.
type InstrPatchResult struct {
	Binary  *bin.Binary
	Patched int
	// Short counts patch sites that needed a 2-byte branch to a nearby
	// hop (the tactic E9Patch's instruction-punning machinery serves).
	Short int
	Traps int
	Stats core.Stats
}

// InstrPatch rewrites the binary the E9Patch way: no binary analysis and
// no control flow rewriting. Each requested address (typically every
// instruction, or every block entry chosen by the user) is overwritten
// with a branch to a stub that executes the payload, the displaced
// instruction, and a branch back. Instructions too short for the 5-byte
// branch get a 2-byte branch to a nearby hop; failing that, a trap.
//
// The approach is X64-only, as the paper notes: its trap-avoidance
// tactics depend on that ISA's variable-length encoding and cannot be
// extended to the fixed-width ISAs.
func InstrPatch(b *bin.Binary, points []uint64) (*InstrPatchResult, error) {
	if b.Arch != arch.X64 {
		return nil, fmt.Errorf("e9patch: architecture %s is not supported (x86-64 only)", b.Arch)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	nb := b.Clone()
	text := nb.Text()
	enc := arch.ForArch(arch.X64)

	// Scratch pool for short-branch hops: inter-function nop padding.
	pool := newPool(nb)

	instrBase := alignUp(nb.MaxLoadedAddr(), 0x1000) + 0x10000
	var stubs []byte
	var trapPairs []bin.AddrPair
	res := &InstrPatchResult{Binary: nb}

	sorted := append([]uint64(nil), points...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	for _, p := range sorted {
		if !text.Contains(p) {
			return nil, fmt.Errorf("e9patch: patch point %#x outside text", p)
		}
		raw := text.Data[p-text.Addr:]
		ins, err := enc.Decode(raw, p)
		if err != nil || ins.Kind == arch.Illegal {
			return nil, fmt.Errorf("e9patch: cannot decode instruction at %#x", p)
		}
		stubAddr := instrBase + uint64(len(stubs))
		stub, err := buildStub(ins, stubAddr)
		if err != nil {
			return nil, err
		}
		stubs = append(stubs, stub...)

		// Patch the site without touching any byte beyond the
		// instruction (neighbouring instructions may be branch targets).
		switch {
		case ins.EncLen >= 5:
			br := arch.Instr{Kind: arch.Branch, Addr: p}
			br.SetTarget(stubAddr)
			bs, err := enc.Append(nil, br)
			if err != nil {
				return nil, err
			}
			writeSite(text, p, ins.EncLen, bs)
		case ins.EncLen >= 2:
			hop, ok := pool.alloc(5, p, 128, 127)
			if !ok {
				writeSite(text, p, ins.EncLen, []byte{0xCC})
				trapPairs = append(trapPairs, bin.AddrPair{From: p, To: stubAddr})
				res.Traps++
				break
			}
			short := arch.Instr{Kind: arch.Branch, Short: true, Addr: p}
			short.SetTarget(hop)
			sb, err := enc.Append(nil, short)
			if err != nil {
				return nil, err
			}
			writeSite(text, p, ins.EncLen, sb)
			long := arch.Instr{Kind: arch.Branch, Addr: hop}
			long.SetTarget(stubAddr)
			lb, err := enc.Append(nil, long)
			if err != nil {
				return nil, err
			}
			copy(text.Data[hop-text.Addr:], lb)
			res.Short++
		default:
			writeSite(text, p, ins.EncLen, []byte{0xCC})
			trapPairs = append(trapPairs, bin.AddrPair{From: p, To: stubAddr})
			res.Traps++
		}
		res.Patched++
	}

	if _, err := nb.AddSection(&bin.Section{
		Name: bin.SecInstr, Addr: instrBase, Data: stubs,
		Flags: bin.FlagAlloc | bin.FlagExec, Align: 16,
	}); err != nil {
		return nil, err
	}
	after := alignUp(instrBase+uint64(len(stubs)), 0x1000) + 0x1000
	if _, err := nb.AddSection(&bin.Section{
		Name: bin.SecTrampMap, Addr: after, Data: bin.EncodeAddrMap(trapPairs),
		Flags: bin.FlagAlloc, Align: 8,
	}); err != nil {
		return nil, err
	}
	res.Stats = core.Stats{
		OrigLoadedSize: b.LoadedSize(),
		NewLoadedSize:  nb.LoadedSize(),
	}
	if err := nb.Validate(); err != nil {
		return nil, err
	}
	return res, nil
}

// buildStub emits [payload (empty)] [displaced instruction, operands
// re-resolved absolutely] [branch back], at stubAddr.
func buildStub(ins arch.Instr, stubAddr uint64) ([]byte, error) {
	enc := arch.ForArch(arch.X64)
	displaced := ins
	displaced.Addr = stubAddr
	if t, ok := ins.Target(); ok {
		displaced.SetTarget(t) // keep the original absolute target
	}
	displaced.Short = false
	out, err := enc.Append(nil, displaced)
	if err != nil {
		return nil, fmt.Errorf("e9patch: re-encoding %s: %w", ins, err)
	}
	if displaced.FallsThrough() {
		back := arch.Instr{Kind: arch.Branch, Addr: stubAddr + uint64(len(out))}
		back.SetTarget(ins.Addr + uint64(ins.EncLen))
		if out, err = enc.Append(out, back); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// writeSite overwrites the patched instruction, nop-filling its tail.
func writeSite(text *bin.Section, p uint64, instrLen int, patch []byte) {
	off := p - text.Addr
	copy(text.Data[off:], patch)
	for i := len(patch); i < instrLen; i++ {
		text.Data[off+uint64(i)] = 0x90
	}
}

// pool is a minimal first-fit scratch allocator over nop padding.
type pool struct{ ranges [][2]uint64 }

func newPool(b *bin.Binary) *pool {
	p := &pool{}
	text := b.Text()
	if text == nil {
		return p
	}
	syms := b.FuncSymbols()
	pos := text.Addr
	for _, s := range syms {
		if s.Addr > pos {
			p.ranges = append(p.ranges, [2]uint64{pos, s.Addr})
		}
		if s.Addr+s.Size > pos {
			pos = s.Addr + s.Size
		}
	}
	if text.End() > pos {
		p.ranges = append(p.ranges, [2]uint64{pos, text.End()})
	}
	return p
}

func (p *pool) alloc(n int, near uint64, maxBack, maxFwd int64) (uint64, bool) {
	for i := range p.ranges {
		r := &p.ranges[i]
		if r[1]-r[0] < uint64(n) {
			continue
		}
		d := int64(r[0] - near)
		if d < -maxBack || d > maxFwd {
			continue
		}
		addr := r[0]
		r[0] += uint64(n)
		return addr, true
	}
	return 0, false
}

func alignUp(v, a uint64) uint64 {
	if a <= 1 {
		return v
	}
	return (v + a - 1) / a * a
}
