package core

import (
	"sort"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/cfg"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/profile"
)

// This file is the PLAN stage of the staged patch pipeline: it builds a
// target-neutral PatchPlan — per-function relocation units with symbolic
// targets, trampoline jobs with their superblock/scratch assignments,
// cloned-table selection, and counter-cell allocation — without encoding
// a single byte. Addresses are assigned later by the layout stage
// (layout.go) and bytes are produced by the emit stage (emit.go) through
// the per-arch arch.Emitter.

// targetKind says how a relocated instruction's control-flow or data
// target is resolved during layout.
type targetKind uint8

const (
	tkNone     targetKind = iota
	tkAbs                 // fixed absolute address (original data, counter cells)
	tkMapped              // original code address, re-resolved through the relocation table
	tkClone               // cloned jump table (index into clones)
	tkFuncBase            // relocated start of a clone's owner function
	tkVarEntry            // alternate-variant entry (index into varAddr)
	tkLocal               // original code address, preferring the fast-body copy
)

// raKind marks items contributing return-address map entries.
type raKind uint8

const (
	raNone raKind = iota
	// raCallRet maps the relocated return address (after the call) to
	// the original return address.
	raCallRet
	// raSelf maps the relocated instruction address itself (throw sites
	// and syscalls, which stand for calls into the language runtime).
	raSelf
)

// planItem is one instruction (or inserted snippet instruction) in the
// relocated code stream. The symbolic half (tk/target/expand) is owned
// by plan+layout; the emit stage sees only the resolved arch.EmitItem.
// A relocated item's original address and length are ins.Addr and
// ins.EncLen; inserted instructions carry zero in both.
type planItem struct {
	ins arch.Instr
	// claim is the original address this item stands for in the
	// relocation table — the fast-body table from the unit's fastStart
	// on — or 0.
	claim   uint64
	target  uint64 // tkAbs address / tkMapped original address / tkClone index
	newAddr uint64
	newLen  int32
	tk      targetKind
	pf      arch.PatchForm
	ra      raKind
	expand  arch.Expand
}

// planUnit is one relocated function's plan. items is a window of the
// plan's value slab — one allocation per plan instead of one per
// instruction, recycled across Patch calls through itemSlabPool
// (pool.go) — so stages address items by index, never by retained
// pointer.
type planUnit struct {
	fn    *cfg.Func
	idx   int // fn's position in Graph.Funcs and Analysis.FuncUnits
	items []planItem
	cells []bin.AddrPair // instrumentation point -> counter cell, in insertion order
	cell  uint64         // the unit's first counter cell
	start uint64         // relocated unit start, assigned by layout
	// Variant planning: varSlot indexes the plan-level varAddr table
	// the dispatch stub's branch resolves through (-1 without a fast
	// variant), selCell is its selector cell, and fastStart indexes the
	// first fast-body item (len(items) without one).
	varSlot   int
	selCell   uint64
	fastStart int
}

// cloneInfo is one jump table selected for cloning.
type cloneInfo struct {
	tbl      *cfg.ResolvedTable
	unit     *planUnit // the owner function's unit
	newEntry int       // entry size in the clone (sub-word entries widen to 4)
	addr     uint64
}

// Roles a jump-table or pointer site plays in classification.
const (
	siteBase     = iota // materialises a cloned table's base
	siteFuncBase        // materialises a compressed table's function base
	siteWiden           // loads a table entry (sub-word entries widen)
	sitePtr             // materialises a code pointer (func-ptr mode)
)

// site is one role of one instruction: v is a clone index, or the
// pointer value for sitePtr.
type site struct {
	addr, v uint64
	role    int
}

// funcTramp is one relocated function's trampoline plan: the
// superblocks and CFL set memoised in its placement. The scratch
// register a long form needs is looked up at installation
// (scratchSite), so a function whose trampolines all fit without one
// never computes liveness.
type funcTramp struct {
	fn  *cfg.Func
	idx int // fn's position in Graph.Funcs and Analysis.FuncUnits
	pl  *funcPlacement
}

// cflBlocks and scratchBlocks are the block counts the stats layer
// reports: CFL blocks receive trampolines, every other block is
// scratch space.
func (ft funcTramp) cflBlocks() int     { return len(ft.pl.cfl) }
func (ft funcTramp) scratchBlocks() int { return len(ft.fn.Blocks) - len(ft.pl.cfl) }

// PatchPlan is the staged pipeline's intermediate representation: what
// the patch will do, independent of byte encodings. A plan is built by
// the plan stage, has addresses assigned by the layout stage, and is
// consumed read-only by the emit stage.
type PatchPlan struct {
	an      *Analysis
	mode    Mode
	req     instrument.Request
	variant Variant
	emitter arch.Emitter
	env     arch.EmitEnv

	units  []*planUnit
	slab   []planItem // backs every unit's items; returned to the pool by release
	clones []*cloneInfo
	tramps []funcTramp

	// Classification inputs: instrumented is indexed like Graph.Funcs;
	// sites is stably sorted by address and siteBits marks their .text
	// offsets, so an ordinary instruction is classified without a search.
	instrumented []bool
	textAddr     uint64
	siteBits     []uint64
	sites        []site

	counterBase uint64
	nextCell    uint64

	// Profile guidance. prof is the (non-trivial) profile steering the
	// rewrite and profCount its per-function heat; the hot functions'
	// selector cells are [selBase, selEnd), directly above the counter
	// region.
	prof      *profile.Profile
	profCount map[string]uint64
	selBase   uint64
	selEnd    uint64

	// Layout products (assigned by layout.go).
	sections  sectionPlan
	instrBase uint64
	instrEnd  uint64
	reloc     relocTable // original addr -> relocated addr
	fastReloc relocTable // original addr -> fast-body copy's addr
	varAddr   []uint64   // variant slot -> fast-body entry addr
}

// newPatchPlan builds the plan for every instrumented function, in
// symbol-table order. Counter cells, and the selector cells directly
// above them, are assigned before any unit is built, since a unit's
// dispatch stub needs its selector cell.
func newPatchPlan(an *Analysis, opts Options, counterBase uint64) *PatchPlan {
	b, g := an.Binary, an.Graph
	text := b.Text()
	p := &PatchPlan{
		an:           an,
		mode:         opts.Mode,
		req:          opts.Request,
		variant:      opts.Variant,
		emitter:      arch.EmitterFor(b.Arch),
		env:          arch.EmitEnv{PIE: b.PIE, TOCValue: b.TOCValue},
		instrumented: make([]bool, len(g.Funcs)),
		textAddr:     text.Addr,
		siteBits:     make([]uint64, (text.Size()+63)/64),
		counterBase:  counterBase,
		nextCell:     counterBase,
	}
	for i, f := range g.Funcs {
		if f.Instrumentable() && p.req.Wants(f.Name) && len(f.Blocks) > 0 {
			p.instrumented[i] = true
			p.units = append(p.units, &planUnit{fn: f, idx: i, varSlot: -1})
		}
	}
	// Collect jump table clones (jt and func-ptr modes).
	if p.mode >= ModeJT {
		for _, u := range p.units {
			for i := range u.fn.IndirectJumps {
				tbl := u.fn.IndirectJumps[i].Table
				if tbl == nil {
					continue
				}
				ci := &cloneInfo{tbl: tbl, unit: u, newEntry: tbl.EntrySize}
				if tbl.EntrySize < 4 {
					ci.newEntry = 4 // widen compressed entries (Section 5.1)
				}
				idx := uint64(len(p.clones))
				p.clones = append(p.clones, ci)
				for _, a := range tbl.BaseInstrs {
					p.addSite(a, siteBase, idx)
				}
				for _, a := range tbl.FuncStartInstrs {
					p.addSite(a, siteFuncBase, idx)
				}
				p.addSite(tbl.LoadAddr, siteWiden, idx)
			}
		}
	}
	// Code-immediate pointer sites (func-ptr mode) are known before any
	// unit is built, so classification sees them on the first pass.
	for _, ps := range an.PtrSites {
		for _, ia := range ps.Instrs {
			p.addSite(ia, sitePtr, ps.Value)
		}
	}
	sort.SliceStable(p.sites, func(i, j int) bool { return p.sites[i].addr < p.sites[j].addr })
	// Pre-assign counter cells per function in symbol-table order.
	if p.req.Payload == instrument.PayloadCounter {
		for _, u := range p.units {
			u.cell = p.nextCell
			p.nextCell += 8 * uint64(p.countPoints(u.fn))
		}
	}

	// Profile guidance. The profile is advisory: trivial (or absent)
	// guidance leaves every structure below empty and the plan identical
	// to the unguided one. Variant bodies engage only for the published
	// configuration on full block-entry counter instrumentation — the
	// ablation baselines stay pure ablations, and the fast body of any
	// other request shape would be indistinguishable from the full one.
	if opts.Profile != nil && !opts.Profile.Trivial() {
		p.prof = opts.Profile
		p.profCount = opts.Profile.CountByName()
	}
	p.selBase, p.selEnd = p.nextCell, p.nextCell
	if p.prof != nil && p.variant == (Variant{}) &&
		p.req.Where == instrument.BlockEntry && p.req.Payload == instrument.PayloadCounter {
		hot := p.prof.HotFuncs()
		// Selector cells directly follow the counter region, assigned in
		// the same symbol-table order.
		for _, u := range p.units {
			if hot[u.fn.Name] {
				u.varSlot, u.selCell = len(p.varAddr), p.selEnd
				p.varAddr = append(p.varAddr, 0)
				p.selEnd += 8
			}
		}
	}

	// Every unit's items live in one pooled slab, each unit in a
	// capacity-limited window of its estimated size: an underestimate
	// regrows that unit's items alone and never writes into the next
	// window.
	ests := make([]int, len(p.units))
	total := 0
	for i, u := range p.units {
		ests[i] = p.itemEstimate(u)
		total += ests[i]
	}
	p.slab = getItemSlab(total)[:total]
	off := 0
	for i, u := range p.units {
		u.items = p.slab[off : off : off+ests[i]]
		off += ests[i]
	}

	if !p.variant.NoTrampolines {
		p.tramps = make([]funcTramp, 0, len(p.units))
	}
	for _, u := range p.units {
		p.buildUnit(g, u)
		if p.variant.NoTrampolines {
			continue
		}
		p.tramps = append(p.tramps, funcTramp{fn: u.fn, idx: u.idx, pl: an.placement(u.idx)})
	}
	return p
}

// addSite records one role of a jump-table or pointer site.
func (p *PatchPlan) addSite(a uint64, role int, v uint64) {
	if off := a - p.textAddr; off < uint64(len(p.siteBits))*64 {
		p.siteBits[off/64] |= 1 << (off % 64)
	}
	p.sites = append(p.sites, site{addr: a, v: v, role: role})
}

// siteAt folds the roles recorded for the instruction at a: per role,
// the last value recorded plus one, so zero means "no such role".
// Unmarked .text offsets return at once; only sites pay for the search.
func (p *PatchPlan) siteAt(a uint64) (sf [sitePtr + 1]uint64) {
	if off := a - p.textAddr; off < uint64(len(p.siteBits))*64 && p.siteBits[off/64]&(1<<(off%64)) == 0 {
		return sf
	}
	for i := sort.Search(len(p.sites), func(i int) bool { return p.sites[i].addr >= a }); i < len(p.sites) && p.sites[i].addr == a; i++ {
		sf[p.sites[i].role] = p.sites[i].v + 1
	}
	return sf
}

// counterCells maps every instrumentation point to its counter cell.
func (p *PatchPlan) counterCells() map[uint64]uint64 {
	m := map[uint64]uint64{}
	for _, u := range p.units {
		for _, c := range u.cells {
			m[c.From] = c.To
		}
	}
	return m
}

// countPoints counts the instrumentation points buildUnit will insert a
// payload snippet for, so counter cells can be pre-assigned.
func (p *PatchPlan) countPoints(f *cfg.Func) int {
	n := 0
	for _, blk := range f.Blocks {
		if p.req.Where == instrument.BlockEntry ||
			(p.req.Where == instrument.FuncEntry && blk.Start == f.Entry) {
			n++
		}
		for _, ins := range blk.Instrs {
			if p.req.WantsAddr(ins.Addr) {
				n++
			}
		}
	}
	return n
}

// buildUnit converts one function's blocks into relocation items in u,
// inserting payload snippets. Counter cells are handed out from the
// unit's pre-assigned u.cell on and recorded in u.cells for the
// result's CounterCells.
//
// For a profile-hot function (u.varSlot >= 0) the unit is a concatenation
// of three streams behind one item slab, so layout, emission, and the
// slab pool are untouched by multi-versioning:
//
//	[dispatch stub][restore + full body][restore + fast body]
//
// The stub (arch.Emitter.DispatchStub) owns the function entry in the
// relocation table — calls, pointers, and the entry trampoline all
// dispatch — and branches to the fast body when the selector cell at
// u.selCell is non-zero. The fast body carries only the entry counter
// (sharing the full body's cell) and resolves intra-function control
// flow through the fast-body table so hot loops never leave the sparse
// copy.
func (p *PatchPlan) buildUnit(g *cfg.Graph, u *planUnit) {
	f, cell := u.fn, u.cell
	if u.varSlot >= 0 {
		// Dispatch stub. The first instruction claims the function entry
		// in the relocation table (its items precede the full body's, and
		// layout's first claim wins). Target kinds are assigned by
		// instruction kind exactly as for counter snippets, plus the
		// trailing conditional branch resolving through varAddr.
		//
		// A CFI function's entry marker must precede the stub: indirect
		// calls dispatch through the entry's claim, so the claim has to
		// decode as a marker under CET enforcement. The marker item takes
		// the claim (first claim wins); the full body's own copy of the
		// marker is then redundant but harmless (markers are no-ops).
		if eb, ok := f.BlockAt(f.Entry); ok && len(eb.Instrs) > 0 && eb.Instrs[0].Kind == arch.Mark {
			u.add(arch.Instr{Kind: arch.Mark}).claim = f.Entry
		}
		for k, ins := range p.emitter.DispatchStub(p.env, u.selCell) {
			it := u.add(ins)
			if k == 0 {
				it.claim = f.Entry
			}
			switch ins.Kind {
			case arch.Lea, arch.LeaHi:
				it.tk, it.pf, it.target = tkAbs, arch.FormPCRel, u.selCell
				it.ins.Imm = 0
			case arch.BranchCond:
				it.tk, it.pf, it.target = tkVarEntry, arch.FormPCRel, uint64(u.varSlot)
			}
		}
		// Fall-through into the full body, which must first recover the
		// register the stub spilled.
		u.add(arch.VariantRestore())
	}

	p.appendFullBody(u, g, &cell)

	u.fastStart = len(u.items)
	if u.varSlot >= 0 {
		u.add(arch.VariantRestore())
		p.appendFastBody(u, g)
	}
}

// itemEstimate sizes a unit's item window: one item per instruction
// plus room for inserted snippets and fall-through branches, doubled
// for a unit with a fast variant.
func (p *PatchPlan) itemEstimate(u *planUnit) int {
	est := 0
	for _, blk := range u.fn.Blocks {
		est += len(blk.Instrs) + 1
	}
	if p.req.Payload == instrument.PayloadCounter {
		est += 4 * p.countPoints(u.fn)
	}
	if u.varSlot >= 0 {
		est = 2*est + 16 // stub, two restores, the fast body
	}
	return est
}

// add appends a zero item carrying ins and returns it to fill in place.
func (u *planUnit) add(ins arch.Instr) *planItem {
	u.items = append(u.items, planItem{})
	it := &u.items[len(u.items)-1]
	it.ins = ins
	return it
}

// addRelocated appends the relocated copy of an original instruction,
// claiming its address, and classifies its operand.
func (p *PatchPlan) addRelocated(u *planUnit, g *cfg.Graph, ins *arch.Instr) *planItem {
	it := u.add(*ins)
	it.ins.Short = false // relocated branches use the long form
	it.claim = ins.Addr
	p.classify(g, it)
	return it
}

// appendFullBody appends the function's fully instrumented body — the
// exact item stream an unguided plan consists of.
func (p *PatchPlan) appendFullBody(u *planUnit, g *cfg.Graph, cell *uint64) {
	f := u.fn
	blocks := f.Blocks
	if p.variant.ReverseBlocks {
		blocks = make([]*cfg.Block, len(f.Blocks))
		for i, blk := range f.Blocks {
			blocks[len(blocks)-1-i] = blk
		}
	}
	for bi, blk := range blocks {
		instrs := blk.Instrs
		// A landing-pad marker opening a block must stay the relocated
		// block's first instruction: indirect transfers resolve through
		// the block's claim, and CET enforcement requires the landing
		// address to decode as a marker before any inserted snippet runs.
		// Hoist it above the snippet; marker-less blocks take the
		// historical item order byte-for-byte.
		var markAddr uint64
		if len(instrs) > 0 && instrs[0].Kind == arch.Mark {
			p.addRelocated(u, g, &instrs[0])
			markAddr = instrs[0].Addr
			instrs = instrs[1:]
		}
		if p.req.Where == instrument.BlockEntry ||
			(p.req.Where == instrument.FuncEntry && blk.Start == f.Entry) {
			p.addSnippet(u, blk.Start, cell)
		}
		if markAddr != 0 && p.req.WantsAddr(markAddr) {
			p.addSnippet(u, markAddr, cell)
		}
		for i := range instrs {
			if p.req.WantsAddr(instrs[i].Addr) {
				p.addSnippet(u, instrs[i].Addr, cell)
			}
			p.addRelocated(u, g, &instrs[i])
		}
		// Reordered blocks whose successor was reached by falling
		// through need an explicit branch to it.
		if last := blk.Last(); last.FallsThrough() && blk.End < f.End {
			needBranch := p.variant.ReverseBlocks && (bi+1 >= len(blocks) || blocks[bi+1].Start != blk.End)
			if needBranch {
				it := u.add(arch.Instr{Kind: arch.Branch})
				it.tk, it.pf, it.target = tkMapped, arch.FormPCRel, blk.End
			}
		}
	}
}

// appendFastBody appends the sparsely instrumented variant: the entry
// block keeps its counter snippet — sharing the full body's cell, so
// either variant feeds the same counter — and every other block is
// relocated without payload. Its items claim in the fast-body table,
// and intra-function control transfers become tkLocal so they resolve
// into this copy first.
func (p *PatchPlan) appendFastBody(u *planUnit, g *cfg.Graph) {
	f := u.fn
	for _, blk := range f.Blocks {
		if blk.Start == f.Entry {
			var c uint64 // the full body's entry cell
			for _, pc := range u.cells {
				if pc.From == f.Entry {
					c = pc.To
				}
			}
			// Entry loops land on the snippet, after the restore: the
			// restore must only run on arrival from the stub.
			p.addCounter(u, c, f.Entry)
		}
		for i := range blk.Instrs {
			it := p.addRelocated(u, g, &blk.Instrs[i])
			if it.tk == tkMapped && it.pf == arch.FormPCRel && it.target >= f.Entry && it.target < f.End {
				switch it.ins.Kind {
				case arch.Branch, arch.BranchCond, arch.Call:
					it.tk = tkLocal
				}
			}
		}
	}
}

// addSnippet appends the payload instructions for the point at origAddr.
func (p *PatchPlan) addSnippet(u *planUnit, origAddr uint64, cell *uint64) {
	if p.req.Payload != instrument.PayloadCounter {
		// Empty instrumentation still owns the mapping for the point
		// (the relocated block starts here); no instructions.
		return
	}
	c := *cell
	*cell += 8
	u.cells = append(u.cells, bin.AddrPair{From: origAddr, To: c})
	p.addCounter(u, c, origAddr)
}

// addCounter appends a counter snippet for cell c whose first item
// claims addr.
func (p *PatchPlan) addCounter(u *planUnit, c, addr uint64) {
	b := p.an.Binary
	for k, ins := range instrument.CounterSnippet(b.Arch, b.PIE, c) {
		it := u.add(ins)
		if k == 0 {
			it.claim = addr
		}
		if ins.Kind == arch.Lea || ins.Kind == arch.LeaHi {
			it.tk, it.pf, it.target = tkAbs, arch.FormPCRel, c
			it.ins.Imm = 0
		}
	}
}

// classify decides how the item's operand is re-resolved.
func (p *PatchPlan) classify(g *cfg.Graph, it *planItem) {
	ins := &it.ins
	sf := p.siteAt(ins.Addr)
	if sf[siteBase] != 0 {
		it.tk, it.target = tkClone, sf[siteBase]-1
		switch ins.Kind {
		case arch.Lea, arch.LeaHi:
			it.pf = arch.FormPCRel
		case arch.MovImm:
			it.pf = arch.FormImmAbs
		case arch.ALUImm, arch.AddImm16:
			it.pf = arch.FormImmLo12
		case arch.MovImm16, arch.MovK16:
			it.pf = arch.FormImmHi16
		}
		return
	}
	if sf[siteFuncBase] != 0 {
		// The compressed-table base must be the relocated unit start:
		// under block reordering the entry block may not come first.
		it.tk, it.pf, it.target = tkFuncBase, arch.FormPCRel, sf[siteFuncBase]-1
		return
	}
	if sf[siteWiden] != 0 && p.clones[sf[siteWiden]-1].tbl.EntrySize < 4 {
		ins.Size, ins.Scale = 4, 4
	}
	switch ins.Kind {
	case arch.Branch, arch.BranchCond, arch.Call:
		t, _ := ins.Target()
		if p.mapsTo(g, t) {
			it.tk, it.pf, it.target = tkMapped, arch.FormPCRel, t
		} else {
			it.tk, it.pf, it.target = tkAbs, arch.FormPCRel, t
		}
		if ins.Kind == arch.Call {
			it.ra = raCallRet
			if p.variant.CallEmulation && p.an.Binary.Arch == arch.X64 {
				it.expand = arch.ExpandEmulCall
				it.ra = raNone
			}
		}
	case arch.CallInd:
		if p.variant.CallEmulation && p.an.Binary.Arch == arch.X64 {
			it.expand = arch.ExpandEmulCallInd
		} else {
			it.ra = raCallRet
		}
	case arch.CallIndMem:
		// Indirect calls through memory still push relocated return
		// addresses that unwinding must translate. (SRBI's call
		// emulation misses these — the Dyninst-10.2 bug — so under
		// CallEmulation they intentionally stay unmapped.)
		if !p.variant.CallEmulation {
			it.ra = raCallRet
		}
	case arch.Lea, arch.LeaHi, arch.LoadPC:
		t, _ := ins.Target()
		it.tk, it.pf, it.target = tkAbs, arch.FormPCRel, t
	case arch.MovImm:
		if sf[sitePtr] != 0 && p.mode == ModeFuncPtr {
			it.tk, it.pf, it.target = tkMapped, arch.FormImmAbs, sf[sitePtr]-1
		}
	case arch.MovImm16, arch.MovK16:
		if sf[sitePtr] != 0 && p.mode == ModeFuncPtr {
			it.tk, it.pf, it.target = tkMapped, arch.FormImmHi16, sf[sitePtr]-1
		}
	case arch.Throw, arch.Syscall:
		it.ra = raSelf
	}
}

// mapsTo reports whether an original code address belongs to a function
// being relocated (so control flow to it must be retargeted).
func (p *PatchPlan) mapsTo(g *cfg.Graph, addr uint64) bool {
	i, ok := g.FuncIndex(addr)
	return ok && p.instrumented[i]
}
