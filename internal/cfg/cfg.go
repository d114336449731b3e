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
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

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
	Name  string
	Entry uint64
	End   uint64
	// Blocks are sorted by Start, and their instructions ascend across
	// the whole slice: a block starts after the previous block's last
	// instruction does. Where x64 decode runs interleave (a branch into
	// the middle of an instruction) a block may start inside the bytes
	// of the previous block's last instruction; otherwise blocks are
	// disjoint. Check verifies this order.
	Blocks []*Block
	// IndirectJumps lists every indirect jump in the function, in
	// address order.
	IndirectJumps []IndirectJump
	// CatchPads are exception landing pad addresses inside the function;
	// they are CFG entry points and, after rewriting, CFL blocks.
	CatchPads []uint64
	// DataRanges are known in-code data regions (embedded jump tables),
	// in address order.
	DataRanges [][2]uint64
	// Gaps are byte ranges inside the function not covered by decoded
	// instructions or known data.
	Gaps [][2]uint64
	// GapsNopOnly reports whether every gap decodes to nop padding.
	GapsNopOnly bool
	// Err is the function's graceful analysis failure, if any: the
	// rewriter skips such functions, losing only their coverage.
	Err error
}

// BlockAt returns the block starting exactly at addr. It searches the
// sorted Blocks, so it answers for a deserialised graph as well as for
// a freshly built one.
func (f *Func) BlockAt(addr uint64) (*Block, bool) {
	lo, hi := 0, len(f.Blocks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if f.Blocks[m].Start < addr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(f.Blocks) && f.Blocks[lo].Start == addr {
		return f.Blocks[lo], true
	}
	return nil, false
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

// Resolver attempts to resolve the targets of an indirect jump. The
// implementation (package analysis) performs backward slicing from the
// jump; it may consult the partially built function for the slice and
// the whole binary for table bytes and boundary hints. It must keep no
// pointer into the partial function once it returns: BuildFunc's next
// traversal pass reuses its arrays.
type Resolver interface {
	ResolveJump(b *bin.Binary, f *Func, jumpAddr uint64) (*ResolvedTable, error)
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
// funcs must be in entry-address order — the order of
// bin.Binary.FuncSymbols and DiscoverFunctions — and is retained as
// Graph.Funcs, so callers may index the graph's functions by their
// position in funcs.
func Assemble(b *bin.Binary, funcs []*Func) *Graph {
	return &Graph{Binary: b, Arch: b.Arch, Funcs: funcs}
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

// jumpResult is the resolver's verdict on one indirect jump: a table or
// an error. BuildFunc keeps them sorted by address.
type jumpResult struct {
	addr uint64
	tbl  *ResolvedTable
	err  error
}

// BuildFunc runs the traverse/resolve fixpoint for one function. It is
// the unit of incremental analysis: everything it reads is either the
// function's own content, the unwind table slice covering it, or —
// through the resolver — jump-table bytes and boundary hints, which the
// resolver can record for reuse validation.
func BuildFunc(b *bin.Binary, text *bin.Section, sym bin.Symbol, pads *unwind.Table, resolver Resolver) *Func {
	catchPads := CatchPads(pads, sym)

	bd := getBuilder(b.Arch, text, sym)
	defer bd.release()
	var jumps []jumpResult
	var f *Func
	for iter := 0; iter < 8; iter++ {
		f = bd.traverse(sym.Name, catchPads, jumps)
		progress := false
		for i := range f.IndirectJumps {
			ij := &f.IndirectJumps[i]
			k, known := findJump(jumps, ij.Addr)
			if known {
				ij.Err = jumps[k].err
				continue
			}
			var jr jumpResult
			if resolver == nil {
				jr = jumpResult{addr: ij.Addr, err: fmt.Errorf("cfg: no resolver for indirect jump at %#x", ij.Addr)}
			} else if tbl, err := resolver.ResolveJump(b, f, ij.Addr); err != nil {
				jr = jumpResult{addr: ij.Addr, err: err}
			} else {
				jr = jumpResult{addr: ij.Addr, tbl: tbl}
				progress = true
			}
			ij.Err = jr.err
			jumps = slices.Insert(jumps, k, jr)
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

// findJump returns the position of addr in the sorted jumps, or where
// it would be inserted.
func findJump(jumps []jumpResult, addr uint64) (int, bool) {
	return slices.BinarySearchFunc(jumps, addr, func(j jumpResult, a uint64) int { return cmp.Compare(j.addr, a) })
}

// tableAt returns the resolved table of the indirect jump at addr.
func tableAt(jumps []jumpResult, addr uint64) *ResolvedTable {
	if k, ok := findJump(jumps, addr); ok {
		return jumps[k].tbl
	}
	return nil
}

// Per-byte flags of the dense function index.
const (
	fLeader  uint8 = 1 << iota // a block must start here
	fVisited                   // a traversal run has started here
	fData                      // inside a resolved in-text table
	fBlock                     // a block starts here
)

// builder is one function's traversal state: a dense index over the
// bytes of the function that lie inside .text, reused by every round
// of BuildFunc's fixpoint and then, through builders, by later
// functions. Nothing a round returns points into it.
type builder struct {
	enc        arch.Encoding
	text       *bin.Section
	start, end uint64 // the function's range
	lo         uint64 // address of index 0; the index covers [lo, lo+len(flags)), inside [start, end)
	// slot holds, per byte, 1 + the index into decoded of the
	// instruction decoded there, or 0. Once blocks are cut, a block
	// start's slot holds 1 + the block's index instead.
	slot    []int32
	flags   []uint8
	decoded []arch.Instr // in decode order
	runs    []int32      // per traversal run, in decode order: the index in decoded of its first instruction
	spans   []span       // the non-empty runs, ordered by address
	work    []uint64
	cuts    []int   // position of each block's first instruction in the address-ordered array
	inDeg   []int32 // per block: predecessor edges

	// The arrays of the previous pass's Func, which the next pass of the
	// same function overwrites (no resolver keeps a pointer into them).
	// release drops them: the last pass's arrays belong to the Func
	// BuildFunc returns.
	all    []arch.Instr
	blocks []Block
	ptrs   []*Block
	edges  []Edge
	preds  []uint64
}

// span is one traversal run's instructions, decoded[lo:hi]: they run
// contiguously in address order.
type span struct{ lo, hi int32 }

// builders pools the scratch arrays across functions. Between functions
// they hold no pointers (arch.Instr is all scalars, and release drops
// the Func arrays), so a pooled builder keeps no binary alive once
// release has dropped enc and text.
var builders = sync.Pool{New: func() any { return new(builder) }}

// getBuilder returns a pooled builder indexing sym's bytes in text.
// traverse clears the index before each use.
func getBuilder(a arch.Arch, text *bin.Section, sym bin.Symbol) *builder {
	start, end := sym.Addr, sym.Addr+sym.Size
	// Only bytes inside .text can decode; the index covers no others.
	lo, hi := max(start, text.Addr), min(end, text.End())
	n := 0
	if hi > lo {
		n = int(hi - lo)
	}
	bd := builders.Get().(*builder)
	bd.enc, bd.text, bd.start, bd.end, bd.lo = arch.ForArch(a), text, start, end, lo
	bd.slot = slices.Grow(bd.slot[:0], n)[:n]
	bd.flags = slices.Grow(bd.flags[:0], n)[:n]
	return bd
}

// release returns the builder to the pool.
func (bd *builder) release() {
	bd.enc, bd.text = nil, nil
	bd.all, bd.blocks, bd.ptrs, bd.edges, bd.preds = nil, nil, nil, nil, nil
	builders.Put(bd)
}

// reuse returns s cleared at length n when its capacity allows, else a
// new slice of length n.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// at returns addr's index position, or -1 outside the index.
func (bd *builder) at(addr uint64) int {
	if addr < bd.lo || addr-bd.lo >= uint64(len(bd.flags)) {
		return -1
	}
	return int(addr - bd.lo)
}

// inRange reports whether addr is function code that can decode: in
// the function, in .text and outside every resolved in-text table.
func (bd *builder) inRange(addr uint64) bool {
	o := bd.at(addr)
	return o >= 0 && bd.flags[o]&fData == 0
}

// push makes addr a leader and queues it for traversal.
func (bd *builder) push(addr uint64) {
	if bd.inRange(addr) {
		bd.flags[bd.at(addr)] |= fLeader
		bd.work = append(bd.work, addr)
	}
}

// blockIndex returns the index of the block starting at addr, or -1.
func (bd *builder) blockIndex(addr uint64) int {
	if o := bd.at(addr); o >= 0 && bd.flags[o]&fBlock != 0 {
		return int(bd.slot[o]) - 1
	}
	return -1
}

// traverse performs one control-flow traversal pass with the jump
// tables resolved so far.
func (bd *builder) traverse(name string, catchPads []uint64, jumps []jumpResult) *Func {
	clear(bd.slot)
	clear(bd.flags)
	bd.decoded = bd.decoded[:0]
	bd.runs = bd.runs[:0]
	bd.work = bd.work[:0]
	f := &Func{Name: name, Entry: bd.start, End: bd.end, CatchPads: catchPads}

	for _, j := range jumps {
		t := j.tbl
		if t == nil || !t.InText {
			continue
		}
		r := [2]uint64{t.TableAddr, t.TableAddr + uint64(t.EntrySize*t.Count)}
		k := len(f.DataRanges)
		for k > 0 && f.DataRanges[k-1][0] > r[0] {
			k--
		}
		f.DataRanges = slices.Insert(f.DataRanges, k, r)
		for a := max(r[0], bd.lo); a < r[1]; a++ {
			o := bd.at(a)
			if o < 0 {
				break
			}
			bd.flags[o] |= fData
		}
	}

	if o := bd.at(bd.start); o >= 0 {
		bd.flags[o] |= fLeader
	}
	bd.work = append(bd.work, bd.start)
	for _, p := range catchPads {
		bd.push(p)
	}
	for _, j := range jumps {
		if j.tbl != nil {
			for _, t := range j.tbl.Targets {
				bd.push(t)
			}
		}
	}

	text := bd.text
	maxLen := bd.enc.MaxLen()
	for len(bd.work) > 0 {
		pc := bd.work[len(bd.work)-1]
		bd.work = bd.work[:len(bd.work)-1]
		if !bd.inRange(pc) || bd.flags[bd.at(pc)]&fVisited != 0 {
			continue
		}
		bd.flags[bd.at(pc)] |= fVisited
		bd.runs = append(bd.runs, int32(len(bd.decoded)))
		for bd.inRange(pc) {
			o := bd.at(pc)
			if bd.slot[o] != 0 {
				bd.flags[o] |= fLeader
				break
			}
			off := int(pc - text.Addr)
			ins, err := bd.enc.Decode(text.Data[off:min(off+maxLen, len(text.Data))], pc)
			if err != nil || ins.Kind == arch.Illegal {
				break
			}
			bd.decoded = append(bd.decoded, ins)
			bd.slot[o] = int32(len(bd.decoded))
			next := pc + uint64(ins.EncLen)
			if !ins.IsControlFlow() {
				pc = next
				continue
			}
			switch ins.Kind {
			case arch.Branch:
				if t, _ := ins.Target(); bd.inRange(t) {
					bd.push(t)
				}
			case arch.BranchCond:
				if t, _ := ins.Target(); bd.inRange(t) {
					bd.push(t)
				}
				bd.push(next)
			case arch.Call, arch.CallInd, arch.CallIndMem:
				bd.push(next)
			case arch.JumpInd:
				if tbl := tableAt(jumps, pc); tbl != nil {
					for _, t := range tbl.Targets {
						bd.push(t)
					}
				}
			}
			break
		}
	}
	bd.cutBlocks(f)
	bd.linkBlocks(f, jumps)
	return f
}

// cutBlocks copies the decoded instructions into one address-ordered
// array and cuts it into blocks at leaders, after control flow, and
// wherever the next decoded instruction does not start where the
// previous one ended (decode runs that stop short, or interleave). Each
// block's Instrs is a capacity-limited sub-slice of that array, so an
// append to one block can never overwrite the next.
//
// Every traversal run decodes a contiguous stretch, so when the runs
// do not overlap the array is the runs in address order. Runs overlap
// only where x64 decode interleaves (a run started inside another
// run's instruction); then the array comes from a walk of the index.
func (bd *builder) cutBlocks(f *Func) {
	if len(bd.decoded) == 0 {
		return
	}
	all := reuse(bd.all, len(bd.decoded))[:0]
	if bd.orderRuns() {
		for _, s := range bd.spans {
			all = append(all, bd.decoded[s.lo:s.hi]...)
		}
	} else {
		for _, s := range bd.slot {
			if s != 0 {
				all = append(all, bd.decoded[s-1])
			}
		}
	}
	cuts := bd.cuts[:0]
	open := false
	var curEnd uint64
	for i, ins := range all {
		if open && (bd.flags[bd.at(ins.Addr)]&fLeader != 0 || ins.Addr != curEnd) {
			open = false
		}
		if !open {
			cuts = append(cuts, i)
			open = true
		}
		curEnd = ins.Addr + uint64(ins.EncLen)
		if ins.IsControlFlow() {
			open = false
		}
	}
	bd.cuts = cuts
	blocks := reuse(bd.blocks, len(cuts))
	f.Blocks = reuse(bd.ptrs, len(cuts))
	bd.all, bd.blocks, bd.ptrs = all, blocks, f.Blocks
	for i, lo := range cuts {
		hi := len(all)
		if i+1 < len(cuts) {
			hi = cuts[i+1]
		}
		blk := &blocks[i]
		blk.Instrs = all[lo:hi:hi]
		blk.Start = all[lo].Addr
		last := all[hi-1]
		blk.End = last.Addr + uint64(last.EncLen)
		f.Blocks[i] = blk
		o := bd.at(blk.Start)
		bd.flags[o] |= fBlock
		bd.slot[o] = int32(i + 1)
	}
}

// orderRuns sorts the non-empty traversal runs into bd.spans by
// address and reports whether they are disjoint.
func (bd *builder) orderRuns() bool {
	spans := bd.spans[:0]
	for k, lo := range bd.runs {
		hi := int32(len(bd.decoded))
		if k+1 < len(bd.runs) {
			hi = bd.runs[k+1]
		}
		if hi > lo {
			spans = append(spans, span{lo, hi})
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(bd.decoded[a.lo].Addr, bd.decoded[b.lo].Addr) })
	bd.spans = spans
	for k := 1; k < len(spans); k++ {
		last := bd.decoded[spans[k-1].hi-1]
		if last.Addr+uint64(last.EncLen) > bd.decoded[spans[k].lo].Addr {
			return false
		}
	}
	return true
}

// linkBlocks adds every block's successor edges, the predecessor lists
// and the indirect jumps. An edge exists only to a block start. All
// edges share one array and all predecessor lists another.
func (bd *builder) linkBlocks(f *Func, jumps []jumpResult) {
	most := 0
	for _, blk := range f.Blocks {
		switch last := blk.Last(); last.Kind {
		case arch.BranchCond:
			most += 2
		case arch.JumpInd:
			if tbl := tableAt(jumps, last.Addr); tbl != nil {
				most += len(tbl.Targets)
			}
		case arch.Ret, arch.Halt, arch.Throw, arch.Trap:
		default:
			most++
		}
	}
	edges := reuse(bd.edges, most)[:0]
	bd.inDeg = append(bd.inDeg[:0], make([]int32, len(f.Blocks))...)
	for _, blk := range f.Blocks {
		lo := len(edges)
		add := func(to uint64, k EdgeKind) {
			if i := bd.blockIndex(to); i >= 0 {
				edges = append(edges, Edge{To: to, Kind: k})
				bd.inDeg[i]++
			}
		}
		last := blk.Last()
		switch last.Kind {
		case arch.Branch:
			if t, ok := last.Target(); ok {
				add(t, EdgeJump)
			}
		case arch.BranchCond:
			if t, ok := last.Target(); ok {
				add(t, EdgeCond)
			}
			add(blk.End, EdgeFall)
		case arch.Call, arch.CallInd, arch.CallIndMem:
			add(blk.End, EdgeCallFall)
		case arch.JumpInd:
			ij := IndirectJump{Addr: last.Addr}
			if tbl := tableAt(jumps, last.Addr); tbl != nil {
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
		if hi := len(edges); hi > lo {
			blk.Succs = edges[lo:hi:hi]
		}
	}

	// Predecessors, in block then edge order: give each block its span
	// of one array, then fill the spans.
	preds := reuse(bd.preds, len(edges))
	bd.edges, bd.preds = edges, preds
	pos := 0
	for i, blk := range f.Blocks {
		n := int(bd.inDeg[i])
		if n > 0 {
			blk.Preds = preds[pos : pos : pos+n]
		}
		pos += n
	}
	for _, blk := range f.Blocks {
		for _, e := range blk.Succs {
			to := f.Blocks[bd.blockIndex(e.To)]
			to.Preds = append(to.Preds, blk.Start)
		}
	}
}

// computeGaps finds unexplored byte ranges and classifies their content.
// Blocks and data ranges are both in address order, so one merge walk
// visits every covered span in order of its start.
func (f *Func) computeGaps(a arch.Arch, text *bin.Section) {
	f.Gaps = nil
	pos := f.Entry
	bi, di := 0, 0
	for bi < len(f.Blocks) || di < len(f.DataRanges) {
		var s, e uint64
		if di == len(f.DataRanges) || (bi < len(f.Blocks) && f.Blocks[bi].Start <= f.DataRanges[di][0]) {
			s, e = f.Blocks[bi].Start, f.Blocks[bi].End
			bi++
		} else {
			s, e = f.DataRanges[di][0], f.DataRanges[di][1]
			di++
		}
		if s > pos {
			f.Gaps = append(f.Gaps, [2]uint64{pos, s})
		}
		if e > pos {
			pos = e
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

// Check verifies the structural invariants the rewriter relies on:
// every block is non-empty, inside [Entry, End), and its Start and End
// agree with its first and last instruction, which run contiguously;
// blocks are in address order and share no instruction (see Blocks);
// every successor and predecessor is a block start. BlockAt searches
// the sorted Blocks and Block.Last indexes Instrs, so a graph that fails
// it misleads or crashes the rewriter; the builder's fuzz and pin tests
// hold every graph BuildFunc makes to it.
func (f *Func) Check() error {
	for i, blk := range f.Blocks {
		if blk == nil || len(blk.Instrs) == 0 {
			return fmt.Errorf("cfg: %s: block %d is empty", f.Name, i)
		}
		if blk.Start < f.Entry || blk.End > f.End || blk.Start >= blk.End {
			return fmt.Errorf("cfg: %s: block [%#x,%#x) outside [%#x,%#x)", f.Name, blk.Start, blk.End, f.Entry, f.End)
		}
		pos := blk.Start
		for _, ins := range blk.Instrs {
			if ins.Addr != pos || ins.EncLen <= 0 {
				return fmt.Errorf("cfg: %s: block %#x: instruction at %#x (length %d) does not follow %#x", f.Name, blk.Start, ins.Addr, ins.EncLen, pos)
			}
			pos += uint64(ins.EncLen)
		}
		if pos != blk.End {
			return fmt.Errorf("cfg: %s: block %#x ends at %#x, its instructions at %#x", f.Name, blk.Start, blk.End, pos)
		}
		if i > 0 {
			if blk.Start <= f.Blocks[i-1].Last().Addr {
				return fmt.Errorf("cfg: %s: block %#x does not follow block %d's last instruction", f.Name, blk.Start, i-1)
			}
		}
	}
	for _, blk := range f.Blocks {
		for _, e := range blk.Succs {
			if _, ok := f.BlockAt(e.To); !ok {
				return fmt.Errorf("cfg: %s: block %#x: successor %#x is not a block start", f.Name, blk.Start, e.To)
			}
		}
		for _, p := range blk.Preds {
			if _, ok := f.BlockAt(p); !ok {
				return fmt.Errorf("cfg: %s: block %#x: predecessor %#x is not a block start", f.Name, blk.Start, p)
			}
		}
	}
	return nil
}
