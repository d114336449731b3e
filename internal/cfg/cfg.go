// Package cfg constructs control flow graphs from binary code by
// control-flow traversal, the critical binary analysis task the paper's
// trampoline placement is built on (Section 4). The builder is
// deliberately structured around the paper's failure-mode taxonomy:
//
//   - Indirect jumps are resolved through a pluggable Resolver (package
//     analysis provides the jump-table analysis). Resolution failures are
//     per-function and graceful: the function is marked with an analysis
//     error instead of poisoning the whole binary.
//   - After failed resolution, the gap-based indirect tail call heuristic
//     of Section 5.1 runs: if the function's unexplored byte ranges are
//     empty or contain only nop padding, unresolved indirect jumps are
//     classified as tail calls and the function remains instrumentable.
//   - Jump-table target sets may over-approximate; extra targets merely
//     split blocks and create unnecessary control-flow-landing blocks,
//     never wrong rewriting.
package cfg

import (
	"fmt"
	"sort"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/unwind"
)

// EdgeKind classifies intra-procedural control flow edges.
type EdgeKind uint8

// Edge kinds.
const (
	// EdgeFall is sequential fall-through into a leader.
	EdgeFall EdgeKind = iota
	// EdgeJump is a direct unconditional branch.
	EdgeJump
	// EdgeCond is the taken side of a conditional branch.
	EdgeCond
	// EdgeCallFall is the fall-through after a call returns.
	EdgeCallFall
	// EdgeIndirect is a resolved jump-table edge.
	EdgeIndirect
)

// Edge is one intra-procedural successor.
type Edge struct {
	To   uint64
	Kind EdgeKind
}

// Block is a basic block: an address range with at most one control flow
// instruction, at its end, and incoming control flow only at its start.
type Block struct {
	Start  uint64
	End    uint64
	Instrs []arch.Instr
	Succs  []Edge
	Preds  []uint64 // start addresses of predecessor blocks
}

// Last returns the block's final instruction.
func (b *Block) Last() arch.Instr { return b.Instrs[len(b.Instrs)-1] }

// Len returns the block's size in bytes.
func (b *Block) Len() int { return int(b.End - b.Start) }

// TableKind classifies the jump target expression tar(x) recovered by
// jump-table analysis.
type TableKind uint8

// Table kinds.
const (
	// TarAbs: tar(x) = x (absolute 8-byte entries).
	TarAbs TableKind = iota
	// TarTableRel: tar(x) = tableBase + x (signed table-relative).
	TarTableRel
	// TarFuncRel4: tar(x) = funcStart + 4*x (A64 compressed entries).
	TarFuncRel4
)

// ResolvedTable is the product of successful jump-table analysis, with
// everything jump table cloning (Section 5.1) needs.
type ResolvedTable struct {
	JumpAddr uint64 // address of the indirect jump
	LoadAddr uint64 // address of the table-read LoadIdx
	// BaseInstrs are the addresses of the instructions forming the
	// table base address; cloning overwrites their targets so the
	// relocated dispatch references the cloned table.
	BaseInstrs []uint64
	// FuncStartInstrs are the addresses of instructions forming the
	// function-start base of TarFuncRel4 tables; cloning retargets them
	// to the relocated function start.
	FuncStartInstrs []uint64
	TableAddr       uint64
	EntrySize       int
	Signed          bool
	Count           int
	BoundExact      bool // true when a bounds check fixed the count; false for Assumption-2 extension
	Kind            TableKind
	FuncStart       uint64
	Targets         []uint64
	InText          bool // table data embedded in the code section (PPC)
	// MarkBounded records that the table's inexact bound was tightened
	// by trusted landing-pad evidence (trimmed at the first unmarked
	// candidate entry) — the per-table attribution of the evidence
	// layer's jump-table source.
	MarkBounded bool
}

// DecodeEntry applies the recovered target expression tar(x) to a raw
// table entry value. The second result is false for implausible raw
// values (a zero absolute entry).
func (t *ResolvedTable) DecodeEntry(x int64) (uint64, bool) {
	switch t.Kind {
	case TarAbs:
		return uint64(x), x != 0
	case TarTableRel:
		return t.TableAddr + uint64(x), true
	default:
		return t.FuncStart + 4*uint64(x), true
	}
}

// EncodeEntry is the inverse of DecodeEntry: it solves tar(x) = target
// for x, used by jump table cloning to compute new entry values
// (Section 5.1: "we solve tar(x) = y for x0 and write x0 to the new
// jump table").
func (t *ResolvedTable) EncodeEntry(target uint64) int64 {
	switch t.Kind {
	case TarAbs:
		return int64(target)
	case TarTableRel:
		return int64(target - t.TableAddr)
	default:
		return int64((target - t.FuncStart) / 4)
	}
}

// IndirectJump records one indirect jump discovered during traversal.
type IndirectJump struct {
	Addr     uint64
	Table    *ResolvedTable // non-nil when resolved
	TailCall bool           // classified by the gap heuristic
	Err      error          // resolution failure, if any
}

// Func is one function's CFG.
type Func struct {
	Name   string
	Entry  uint64
	End    uint64
	Blocks []*Block // sorted by Start
	// IndirectJumps lists every indirect jump in the function.
	IndirectJumps []IndirectJump
	// CatchPads are exception landing pad addresses inside the function;
	// they are CFG entry points and, after rewriting, CFL blocks.
	CatchPads []uint64
	// DataRanges are known in-code data regions (embedded jump tables).
	DataRanges [][2]uint64
	// Gaps are byte ranges inside the function not covered by decoded
	// instructions or known data.
	Gaps [][2]uint64
	// GapsNopOnly reports whether every gap decodes to nop padding.
	GapsNopOnly bool
	// Err is the function's graceful analysis failure, if any: the
	// rewriter skips such functions, losing only their coverage.
	Err error

	byStart map[uint64]*Block
}

// BlockAt returns the block starting exactly at addr.
func (f *Func) BlockAt(addr uint64) (*Block, bool) {
	b, ok := f.byStart[addr]
	return b, ok
}

// Reindex rebuilds the function's internal block index from Blocks.
// Deserialised graphs need it: the index is unexported, so any codec
// (gob drops unexported fields) delivers a Func whose BlockAt answers
// nothing until Reindex runs.
func (f *Func) Reindex() {
	f.byStart = make(map[uint64]*Block, len(f.Blocks))
	for _, blk := range f.Blocks {
		f.byStart[blk.Start] = blk
	}
}

// BlockContaining returns the block whose range covers addr.
func (f *Func) BlockContaining(addr uint64) (*Block, bool) {
	i := sort.Search(len(f.Blocks), func(i int) bool { return f.Blocks[i].Start > addr })
	if i > 0 && addr < f.Blocks[i-1].End {
		return f.Blocks[i-1], true
	}
	return nil, false
}

// Contains reports whether addr is inside the function's range.
func (f *Func) Contains(addr uint64) bool { return addr >= f.Entry && addr < f.End }

// Instrumentable reports whether the rewriter may relocate this function.
func (f *Func) Instrumentable() bool { return f.Err == nil }

// Graph is the whole-binary CFG.
type Graph struct {
	Binary *bin.Binary
	Arch   arch.Arch
	Funcs  []*Func // sorted by entry
	byName map[string]*Func
}

// FuncByName returns the named function's CFG.
func (g *Graph) FuncByName(name string) (*Func, bool) {
	f, ok := g.byName[name]
	return f, ok
}

// FuncContaining returns the function covering addr.
func (g *Graph) FuncContaining(addr uint64) (*Func, bool) {
	if i, ok := g.FuncIndex(addr); ok {
		return g.Funcs[i], true
	}
	return nil, false
}

// FuncIndex returns the position in g.Funcs of the function covering addr.
func (g *Graph) FuncIndex(addr uint64) (int, bool) {
	i := sort.Search(len(g.Funcs), func(i int) bool { return g.Funcs[i].Entry > addr })
	if i > 0 && addr < g.Funcs[i-1].End {
		return i - 1, true
	}
	return -1, false
}

// IsFuncEntry reports whether addr is a function entry point.
func (g *Graph) IsFuncEntry(addr uint64) bool {
	f, ok := g.FuncContaining(addr)
	return ok && f.Entry == addr
}

// Resolver attempts to resolve the targets of an indirect jump. The
// implementation (package analysis) performs backward slicing from the
// jump; it may consult the partially built function for the slice and
// the whole binary for table bytes and boundary hints.
type Resolver interface {
	ResolveJump(b *bin.Binary, f *Func, jumpAddr uint64) (*ResolvedTable, error)
}

// Build constructs the CFG of every function symbol in the binary. A nil
// resolver leaves all indirect jumps unresolved (they are then subject
// to the tail-call heuristic). Build itself only fails on malformed
// inputs; per-function analysis failures land in Func.Err.
func Build(b *bin.Binary, resolver Resolver) (*Graph, error) {
	text := b.Text()
	if text == nil {
		return nil, fmt.Errorf("cfg: binary has no text section")
	}
	pads, err := UnwindTable(b)
	if err != nil {
		return nil, err
	}
	var funcs []*Func
	for _, sym := range b.FuncSymbols() {
		if sym.Size == 0 {
			continue
		}
		funcs = append(funcs, BuildFunc(b, text, sym, pads, resolver))
	}
	return Assemble(b, funcs), nil
}

// UnwindTable decodes the binary's unwind table, or returns nil when the
// binary carries none. Decoding once and passing the table to every
// BuildFunc call is what lets callers build functions individually.
func UnwindTable(b *bin.Binary) (*unwind.Table, error) {
	s := b.Section(bin.SecEhFrame)
	if s == nil {
		return nil, nil
	}
	tab, err := unwind.Decode(s.Data)
	if err != nil {
		return nil, fmt.Errorf("cfg: parsing unwind table: %w", err)
	}
	return tab, nil
}

// Assemble builds a whole-binary Graph from individually constructed
// functions: the seam the delta engine uses to mix freshly built
// functions with units reused from a previous version of the binary.
// The input slice is retained and re-sorted by entry address.
func Assemble(b *bin.Binary, funcs []*Func) *Graph {
	g := &Graph{Binary: b, Arch: b.Arch, Funcs: funcs, byName: map[string]*Func{}}
	sort.Slice(g.Funcs, func(i, j int) bool { return g.Funcs[i].Entry < g.Funcs[j].Entry })
	for _, f := range g.Funcs {
		g.byName[f.Name] = f
	}
	return g
}

// CatchPads returns the exception landing pads inside sym, in table
// order — the per-function slice of the unwind table BuildFunc consumes
// and the delta engine folds into a function's analysis identity.
func CatchPads(pads *unwind.Table, sym bin.Symbol) []uint64 {
	if pads == nil {
		return nil
	}
	var out []uint64
	if fde, ok := pads.Find(sym.Addr); ok {
		for _, p := range fde.Pads {
			if p.Pad >= sym.Addr && p.Pad < sym.Addr+sym.Size {
				out = append(out, p.Pad)
			}
		}
	}
	return out
}

// BuildFunc runs the traverse/resolve fixpoint for one function. It is
// the unit of incremental analysis: everything it reads is either the
// function's own content, the unwind table slice covering it, or —
// through the resolver — jump-table bytes and boundary hints, which the
// resolver can record for reuse validation.
func BuildFunc(b *bin.Binary, text *bin.Section, sym bin.Symbol, pads *unwind.Table, resolver Resolver) *Func {
	catchPads := CatchPads(pads, sym)

	resolved := map[uint64]*ResolvedTable{}
	errs := map[uint64]error{}
	var f *Func
	for iter := 0; iter < 8; iter++ {
		f = traverse(b, text, sym, catchPads, resolved)
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

	// Gap analysis and the indirect tail call heuristic (Section 5.1):
	// unresolved indirect jumps in gap-free (or nop-padded-gap) functions
	// are classified as tail calls; otherwise the function fails.
	f.computeGaps(b.Arch, text)
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

// traverse performs one control-flow traversal pass.
func traverse(b *bin.Binary, text *bin.Section, sym bin.Symbol, catchPads []uint64, resolved map[uint64]*ResolvedTable) *Func {
	enc := arch.ForArch(b.Arch)
	start, end := sym.Addr, sym.Addr+sym.Size
	f := &Func{Name: sym.Name, Entry: start, End: end, CatchPads: catchPads, byStart: map[uint64]*Block{}}

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

	// Cut blocks.
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
		f.byStart[blk.Start] = blk
	}

	// Edges.
	for bi, blk := range f.Blocks {
		last := blk.Last()
		add := func(to uint64, k EdgeKind) {
			if _, ok := f.byStart[to]; ok {
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
			// no successors
		default:
			add(blk.End, EdgeFall)
		}
		_ = bi
	}
	sort.Slice(f.IndirectJumps, func(i, j int) bool { return f.IndirectJumps[i].Addr < f.IndirectJumps[j].Addr })

	// Predecessors.
	for _, blk := range f.Blocks {
		for _, e := range blk.Succs {
			if to, ok := f.byStart[e.To]; ok {
				to.Preds = append(to.Preds, blk.Start)
			}
		}
	}
	return f
}

// computeGaps finds unexplored byte ranges and classifies their content.
func (f *Func) computeGaps(a arch.Arch, text *bin.Section) {
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
	// Decode each gap: only-nops gaps are alignment padding (Section 5.1
	// heuristic for indirect tail calls).
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

// SplitAt splits the block containing addr so that addr starts a new
// block, returning the new (or existing) block. Over-approximated
// control flow edges from imprecise analysis land here: the split wastes
// a little scratch space but cannot cause wrong rewriting (Section 4.3).
func (f *Func) SplitAt(addr uint64) (*Block, bool) {
	if blk, ok := f.byStart[addr]; ok {
		return blk, true
	}
	blk, ok := f.BlockContaining(addr)
	if !ok {
		return nil, false
	}
	// Find the instruction boundary.
	idx := -1
	for i, ins := range blk.Instrs {
		if ins.Addr == addr {
			idx = i
			break
		}
	}
	if idx <= 0 {
		return nil, false // not on an instruction boundary
	}
	nb := &Block{Start: addr, End: blk.End, Instrs: blk.Instrs[idx:], Succs: blk.Succs, Preds: []uint64{blk.Start}}
	blk.Instrs = blk.Instrs[:idx]
	blk.End = addr
	blk.Succs = []Edge{{To: addr, Kind: EdgeFall}}
	f.byStart[addr] = nb
	i := sort.Search(len(f.Blocks), func(i int) bool { return f.Blocks[i].Start > blk.Start })
	f.Blocks = append(f.Blocks, nil)
	copy(f.Blocks[i+1:], f.Blocks[i:])
	f.Blocks[i] = nb
	return nb, true
}
