package cfg

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/unwind"
)

// fuzzResolver resolves indirect jumps from the function's own bytes,
// so a fuzz input steers resolution too. The four bytes one maximal
// instruction length past the jump choose: failure (p0%3 == 0), an
// in-text table (p0%3 == 1, placed at p2 instruction slots into the
// function) or a table elsewhere, its entry count (1 + p1%4), and its
// targets — spread over the function and a little past its end. It
// reads nothing of the partially built graph but its bounds, so every
// build of one input sees the same answers.
type fuzzResolver struct{}

func (fuzzResolver) ResolveJump(b *bin.Binary, f *Func, jumpAddr uint64) (*ResolvedTable, error) {
	text := b.Text()
	size := f.End - f.Entry
	if size == 0 || len(text.Data) == 0 {
		return nil, fmt.Errorf("fuzz: empty function")
	}
	base := jumpAddr - text.Addr + uint64(arch.ForArch(b.Arch).MaxLen())
	p := func(i uint64) uint64 { return uint64(text.Data[(base+i)%uint64(len(text.Data))]) }
	if p(0)%3 == 0 {
		return nil, fmt.Errorf("fuzz: no table for %#x", jumpAddr)
	}
	align := b.Arch.InstrAlign()
	n := 1 + int(p(1)%4)
	tbl := &ResolvedTable{JumpAddr: jumpAddr, EntrySize: 4, Count: n, Kind: TarAbs, TableAddr: text.End() + 64}
	if p(0)%3 == 1 {
		tbl.InText = true
		tbl.TableAddr = f.Entry + (p(2)*align)%size
	}
	for k := uint64(0); k < uint64(n); k++ {
		tbl.Targets = append(tbl.Targets, f.Entry+((p(3)+7*k)*align)%(size+8*align))
	}
	return tbl, nil
}

// FuzzBuildFunc wraps the input as the .text of a one-function binary
// on every ISA and builds the function twice: with BuildFunc and with
// mapBuildFunc, the map-based construction BuildFunc replaced. The two
// must dump identically, and BuildFunc's graph must pass Check.
func FuzzBuildFunc(f *testing.F) {
	f.Add(interleavedX64())
	f.Add(tableSeed(arch.PPC, 1))
	f.Add(tableSeed(arch.X64, 1))
	f.Add(nopGapSeed())
	f.Fuzz(func(t *testing.T, code []byte) {
		if len(code) > 4096 {
			code = code[:4096]
		}
		for _, a := range arch.All() {
			for _, res := range []Resolver{nil, fuzzResolver{}} {
				b, sym := rawFunc(a, code)
				got := BuildFunc(b, b.Text(), sym, nil, res)
				want := mapBuildFunc(b, b.Text(), sym, nil, res)
				if err := got.Check(); err != nil {
					t.Fatalf("%s resolver=%t: %v", a, res != nil, err)
				}
				var gb, wb bytes.Buffer
				dumpFunc(&gb, got)
				dumpFunc(&wb, want)
				if gb.String() != wb.String() {
					t.Fatalf("%s resolver=%t: graphs differ\ngot:\n%s\nwant:\n%s", a, res != nil, gb.String(), wb.String())
				}
			}
		}
	})
}

// tableSeed is an indirect jump followed by the four bytes fuzzResolver
// reads for it: p0 = kind, so kind 1 places an in-text table (a data
// range) inside the function.
func tableSeed(a arch.Arch, kind byte) []byte {
	enc := arch.ForArch(a)
	code, _ := enc.Append(nil, arch.Instr{Kind: arch.MovImm, Rd: arch.R1, Imm: 3})
	jump := len(code)
	code, _ = enc.Append(code, arch.Instr{Kind: arch.JumpInd, Rs1: arch.R9})
	for len(code) < jump+enc.MaxLen() {
		code, _ = enc.Append(code, arch.Instr{Kind: arch.Nop})
	}
	code = append(code[:jump+enc.MaxLen()], kind, 2, 3, 1)
	for i := 0; i < 8; i++ {
		code, _ = enc.Append(code, arch.Instr{Kind: arch.Nop})
	}
	code, _ = enc.Append(code, arch.Instr{Kind: arch.Ret})
	return code
}

// nopGapSeed is an x64 indirect jump the resolver refuses (0x90 % 3 is
// 0) followed by nop padding only: the tail-call heuristic's case.
func nopGapSeed() []byte {
	enc := arch.ForArch(arch.X64)
	code, _ := enc.Append(nil, arch.Instr{Kind: arch.JumpInd, Rs1: arch.R9})
	return append(code, bytes.Repeat([]byte{0x90}, 16)...)
}

// mapBuildFunc is the map-based CFG construction BuildFunc replaced,
// kept verbatim as the fuzzer's reference: decoded instructions in a
// map keyed by address, leaders and visited addresses in maps, blocks
// cut from the sorted keys, an address-keyed block index for edges.
func mapBuildFunc(b *bin.Binary, text *bin.Section, sym bin.Symbol, pads *unwind.Table, resolver Resolver) *Func {
	catchPads := CatchPads(pads, sym)

	resolved := map[uint64]*ResolvedTable{}
	errs := map[uint64]error{}
	var f *Func
	for iter := 0; iter < 8; iter++ {
		f = mapTraverse(b, text, sym, catchPads, resolved)
		progress := false
		for i := range f.IndirectJumps {
			ij := &f.IndirectJumps[i]
			if ij.Table != nil || errs[ij.Addr] != nil {
				ij.Err = errs[ij.Addr]
				continue
			}
			if resolver == nil {
				errs[ij.Addr] = fmt.Errorf("cfg: no resolver for indirect jump at %#x", ij.Addr)
				ij.Err = errs[ij.Addr]
				continue
			}
			tbl, err := resolver.ResolveJump(b, f, ij.Addr)
			if err != nil {
				errs[ij.Addr] = err
				ij.Err = err
				continue
			}
			resolved[ij.Addr] = tbl
			progress = true
		}
		if !progress {
			break
		}
	}

	mapComputeGaps(f, b.Arch, text)
	var failErr error
	for i := range f.IndirectJumps {
		ij := &f.IndirectJumps[i]
		if ij.Table != nil {
			continue
		}
		if f.GapsNopOnly {
			ij.TailCall = true
			continue
		}
		if failErr == nil {
			failErr = fmt.Errorf("cfg: %s: unresolved indirect jump at %#x with non-nop gaps: %w", sym.Name, ij.Addr, ij.Err)
		}
	}
	f.Err = failErr
	return f
}

func mapTraverse(b *bin.Binary, text *bin.Section, sym bin.Symbol, catchPads []uint64, resolved map[uint64]*ResolvedTable) *Func {
	enc := arch.ForArch(b.Arch)
	start, end := sym.Addr, sym.Addr+sym.Size
	f := &Func{Name: sym.Name, Entry: start, End: end, CatchPads: catchPads}
	byStart := map[uint64]*Block{}

	var dataRanges [][2]uint64
	for _, t := range resolved {
		if t.InText {
			dataRanges = append(dataRanges, [2]uint64{t.TableAddr, t.TableAddr + uint64(t.EntrySize*t.Count)})
		}
	}
	f.DataRanges = dataRanges
	inData := func(a uint64) bool {
		for _, r := range dataRanges {
			if a >= r[0] && a < r[1] {
				return true
			}
		}
		return false
	}
	inRange := func(a uint64) bool { return a >= start && a < end && !inData(a) }

	instrAt := map[uint64]arch.Instr{}
	leaders := map[uint64]bool{start: true}
	work := []uint64{start}
	push := func(a uint64) {
		if inRange(a) {
			leaders[a] = true
			work = append(work, a)
		}
	}
	for _, p := range catchPads {
		push(p)
	}
	for _, t := range resolved {
		for _, tgt := range t.Targets {
			push(tgt)
		}
	}

	visited := map[uint64]bool{}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if visited[pc] || !inRange(pc) {
			continue
		}
		visited[pc] = true
		for inRange(pc) {
			if _, seen := instrAt[pc]; seen {
				leaders[pc] = true
				break
			}
			off := pc - text.Addr
			if off >= uint64(len(text.Data)) {
				break
			}
			win := text.Data[off:min(int(off)+enc.MaxLen(), len(text.Data))]
			ins, err := enc.Decode(win, pc)
			if err != nil || ins.Kind == arch.Illegal {
				break
			}
			instrAt[pc] = ins
			next := pc + uint64(ins.EncLen)
			if !ins.IsControlFlow() {
				pc = next
				continue
			}
			switch ins.Kind {
			case arch.Branch:
				if t, _ := ins.Target(); inRange(t) {
					push(t)
				}
			case arch.BranchCond:
				if t, _ := ins.Target(); inRange(t) {
					push(t)
				}
				push(next)
			case arch.Call, arch.CallInd, arch.CallIndMem:
				push(next)
			case arch.JumpInd:
				if tbl := resolved[pc]; tbl != nil {
					for _, t := range tbl.Targets {
						push(t)
					}
				}
			}
			break
		}
	}

	addrs := make([]uint64, 0, len(instrAt))
	for a := range instrAt {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var cur *Block
	flush := func() {
		if cur != nil {
			f.Blocks = append(f.Blocks, cur)
			cur = nil
		}
	}
	for _, a := range addrs {
		ins := instrAt[a]
		if cur != nil && (leaders[a] || a != cur.End) {
			flush()
		}
		if cur == nil {
			cur = &Block{Start: a, End: a}
		}
		cur.Instrs = append(cur.Instrs, ins)
		cur.End = a + uint64(ins.EncLen)
		if ins.IsControlFlow() {
			flush()
		}
	}
	flush()
	sort.Slice(f.Blocks, func(i, j int) bool { return f.Blocks[i].Start < f.Blocks[j].Start })
	for _, blk := range f.Blocks {
		byStart[blk.Start] = blk
	}

	for _, blk := range f.Blocks {
		last := blk.Last()
		add := func(to uint64, k EdgeKind) {
			if _, ok := byStart[to]; ok {
				blk.Succs = append(blk.Succs, Edge{To: to, Kind: k})
			}
		}
		switch last.Kind {
		case arch.Branch:
			if t, _ := last.Target(); inRange(t) {
				add(t, EdgeJump)
			}
		case arch.BranchCond:
			if t, _ := last.Target(); inRange(t) {
				add(t, EdgeCond)
			}
			add(blk.End, EdgeFall)
		case arch.Call, arch.CallInd, arch.CallIndMem:
			add(blk.End, EdgeCallFall)
		case arch.JumpInd:
			ij := IndirectJump{Addr: last.Addr}
			if tbl := resolved[last.Addr]; tbl != nil {
				ij.Table = tbl
				for _, t := range tbl.Targets {
					add(t, EdgeIndirect)
				}
			}
			f.IndirectJumps = append(f.IndirectJumps, ij)
		case arch.Ret, arch.Halt, arch.Throw, arch.Trap:
		default:
			add(blk.End, EdgeFall)
		}
	}
	sort.Slice(f.IndirectJumps, func(i, j int) bool { return f.IndirectJumps[i].Addr < f.IndirectJumps[j].Addr })

	for _, blk := range f.Blocks {
		for _, e := range blk.Succs {
			if to, ok := byStart[e.To]; ok {
				to.Preds = append(to.Preds, blk.Start)
			}
		}
	}
	return f
}

func mapComputeGaps(f *Func, a arch.Arch, text *bin.Section) {
	type span struct{ s, e uint64 }
	var covered []span
	for _, blk := range f.Blocks {
		covered = append(covered, span{blk.Start, blk.End})
	}
	for _, dr := range f.DataRanges {
		covered = append(covered, span{dr[0], dr[1]})
	}
	sort.Slice(covered, func(i, j int) bool { return covered[i].s < covered[j].s })
	f.Gaps = nil
	pos := f.Entry
	for _, sp := range covered {
		if sp.s > pos {
			f.Gaps = append(f.Gaps, [2]uint64{pos, sp.s})
		}
		if sp.e > pos {
			pos = sp.e
		}
	}
	if pos < f.End {
		f.Gaps = append(f.Gaps, [2]uint64{pos, f.End})
	}
	f.GapsNopOnly = true
	for _, gap := range f.Gaps {
		arch.Walk(a, text.Data[gap[0]-text.Addr:gap[1]-text.Addr], gap[0], func(ins arch.Instr) bool {
			f.GapsNopOnly = ins.Kind == arch.Nop
			return f.GapsNopOnly
		})
		if !f.GapsNopOnly {
			return
		}
	}
}
