package core

import (
	"sync"
	"sync/atomic"

	"icfgpatch/internal/arch"
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
	tkMapped              // original code address, re-resolved through relocMap
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
type planItem struct {
	ins      arch.Instr
	origAddr uint64 // 0 for inserted instructions
	origLen  int
	mapAddr  uint64 // original address this item stands for in relocMap
	tk       targetKind
	pf       arch.PatchForm
	target   uint64 // tkAbs address / tkMapped original address / tkClone index
	ra       raKind
	expand   arch.Expand
	newAddr  uint64
	newLen   int
	// vmap is the original address this item stands for in the fast-body
	// relocation map (fastReloc): intra-function control flow inside a
	// fast variant resolves through it so hot loops never leave the
	// sparsely instrumented copy. Zero for full-body and stub items.
	vmap uint64
}

// planUnit is one relocated function's plan. items is a value slab — one allocation per unit
// instead of one per instruction, recycled across Patch calls through
// itemSlabPool (pool.go) — so stages address items by index, never by
// retained pointer.
type planUnit struct {
	fn    *cfg.Func
	items []planItem
	// Variant planning (profile-guided functions only): variants counts
	// alternate bodies (0 or 1), fastStart indexes the first fast-body
	// item, varSlot indexes the plan-level varAddr table the dispatch
	// stub's branch resolves through.
	variants  int
	fastStart int
	varSlot   int
}

// cloneInfo is one jump table selected for cloning.
type cloneInfo struct {
	tbl      *cfg.ResolvedTable
	owner    *cfg.Func
	newEntry int // entry size in the clone (sub-word entries widen to 4)
	addr     uint64
}

// trampJob is one planned trampoline: the superblock to patch and the
// scratch register liveness analysis found dead at its start.
type trampJob struct {
	sb      superblock
	scratch arch.Reg
}

// funcTramp is one function's trampoline jobs plus the block counts the
// stats layer reports.
type funcTramp struct {
	fn            *cfg.Func
	cflBlocks     int
	scratchBlocks int
	jobs          []trampJob
}

// PatchPlan is the staged pipeline's intermediate representation: what
// the patch will do, independent of byte encodings. A plan is built by
// the plan stage, has addresses assigned by the layout stage, and is
// consumed read-only by the emit stage — so emission can run on a worker
// pool and unchanged units can skip re-encoding entirely.
type PatchPlan struct {
	an      *Analysis
	mode    Mode
	req     instrument.Request
	variant Variant
	emitter arch.Emitter
	env     arch.EmitEnv

	units  []*planUnit
	clones []*cloneInfo
	tramps []funcTramp

	baseSite     map[uint64]int // instr addr -> clone index (table base)
	funcSite     map[uint64]int // instr addr -> clone index (func start base)
	widenLoad    map[uint64]int
	codePtrImm   map[uint64]uint64 // instr addr -> original pointer value (func-ptr mode)
	instrumented map[string]bool

	counterCells map[uint64]uint64
	counterBase  uint64
	nextCell     uint64

	// Profile guidance. prof is the (non-trivial) profile steering the
	// rewrite; profCount its per-function heat; hot the instrumented
	// functions that receive a fast variant; selCells their selector
	// cells ([selBase, selEnd), directly above the counter region).
	prof      *profile.Profile
	profCount map[string]uint64
	hot       map[string]bool
	selCells  map[string]uint64
	selBase   uint64
	selEnd    uint64

	// Layout products (assigned by layout.go).
	sections  sectionPlan
	instrBase uint64
	instrEnd  uint64
	unitStart map[string]uint64 // function name -> relocated unit start
	relocMap  map[uint64]uint64
	fastReloc map[uint64]uint64 // original addr -> fast-body copy's addr
	varAddr   []uint64          // variant slot -> fast-body entry addr
}

// newPatchPlan builds the plan for every instrumented function. Unit
// construction is independent per function, so it runs on up to jobs
// workers; counter cells are pre-assigned sequentially in symbol-table
// order first, which keeps the plan — and therefore the emitted bytes —
// identical whatever the worker count.
func newPatchPlan(an *Analysis, opts Options, counterBase uint64) *PatchPlan {
	b, g := an.Binary, an.Graph
	p := &PatchPlan{
		an:           an,
		mode:         opts.Mode,
		req:          opts.Request,
		variant:      opts.Variant,
		emitter:      arch.EmitterFor(b.Arch),
		env:          arch.EmitEnv{PIE: b.PIE, TOCValue: b.TOCValue},
		baseSite:     map[uint64]int{},
		funcSite:     map[uint64]int{},
		widenLoad:    map[uint64]int{},
		codePtrImm:   map[uint64]uint64{},
		instrumented: make(map[string]bool, len(g.Funcs)),
		counterCells: map[uint64]uint64{},
		counterBase:  counterBase,
		nextCell:     counterBase,
	}
	for _, f := range g.Funcs {
		if f.Instrumentable() && p.req.Wants(f.Name) && len(f.Blocks) > 0 {
			p.instrumented[f.Name] = true
		}
	}
	// Collect jump table clones (jt and func-ptr modes).
	if p.mode >= ModeJT {
		for _, f := range g.Funcs {
			if !p.instrumented[f.Name] {
				continue
			}
			for i := range f.IndirectJumps {
				tbl := f.IndirectJumps[i].Table
				if tbl == nil {
					continue
				}
				ci := &cloneInfo{tbl: tbl, owner: f, newEntry: tbl.EntrySize}
				if tbl.EntrySize < 4 {
					ci.newEntry = 4 // widen compressed entries (Section 5.1)
				}
				idx := len(p.clones)
				p.clones = append(p.clones, ci)
				for _, a := range tbl.BaseInstrs {
					p.baseSite[a] = idx
				}
				for _, a := range tbl.FuncStartInstrs {
					p.funcSite[a] = idx
				}
				p.widenLoad[tbl.LoadAddr] = idx
			}
		}
	}
	// Code-immediate pointer sites (func-ptr mode) are known before any
	// unit is built, so classification sees them on the first pass.
	for _, site := range an.PtrSites {
		for _, ia := range site.Instrs {
			p.codePtrImm[ia] = site.Value
		}
	}

	var fns []*cfg.Func
	for _, f := range g.Funcs {
		if p.instrumented[f.Name] {
			fns = append(fns, f)
		}
	}
	// Pre-assign counter cells per function in symbol-table order: the
	// cell sequence must not depend on which worker builds which unit.
	cellBase := make([]uint64, len(fns))
	if p.req.Payload == instrument.PayloadCounter {
		next := counterBase
		for i, f := range fns {
			cellBase[i] = next
			next += 8 * uint64(p.countPoints(f))
		}
		p.nextCell = next
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
	varSlot := make([]int, len(fns))
	selCell := make([]uint64, len(fns))
	p.selBase, p.selEnd = p.nextCell, p.nextCell
	for i := range varSlot {
		varSlot[i] = -1
	}
	if p.prof != nil && p.variant == (Variant{}) &&
		p.req.Where == instrument.BlockEntry && p.req.Payload == instrument.PayloadCounter {
		hotAll := p.prof.HotFuncs()
		p.hot = map[string]bool{}
		p.selCells = map[string]uint64{}
		// Selector cells directly follow the counter region, assigned in
		// the same symbol-table order for worker-count independence.
		slot := 0
		for i, f := range fns {
			if !hotAll[f.Name] {
				continue
			}
			p.hot[f.Name] = true
			selCell[i] = p.selEnd
			p.selCells[f.Name] = p.selEnd
			p.selEnd += 8
			varSlot[i] = slot
			slot++
		}
		p.varAddr = make([]uint64, slot)
	}

	p.units = make([]*planUnit, len(fns))
	cellMaps := make([]map[uint64]uint64, len(fns))
	if !p.variant.NoTrampolines {
		p.tramps = make([]funcTramp, len(fns))
	}
	build := func(i int) {
		f := fns[i]
		p.units[i], cellMaps[i] = p.buildUnit(g, f, cellBase[i], varSlot[i], selCell[i])
		if !p.variant.NoTrampolines {
			pl := an.placement(f)
			ft := funcTramp{fn: f, cflBlocks: len(pl.cfl), scratchBlocks: len(f.Blocks) - len(pl.cfl)}
			for _, sb := range pl.sbs {
				ft.jobs = append(ft.jobs, trampJob{sb: sb, scratch: pl.lv.DeadAt(sb.Block.Start)})
			}
			p.tramps[i] = ft
		}
	}
	runIndexed(len(fns), opts.PatchJobs, build)
	for i := range cellMaps {
		for a, c := range cellMaps[i] {
			p.counterCells[a] = c
		}
	}
	return p
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

// buildUnit converts one function's blocks into relocation items,
// inserting payload snippets. cell is the function's pre-assigned
// counter-cell cursor; the returned map records origAddr -> cell for the
// plan's counterCells (merged sequentially to stay deterministic).
//
// For a profile-hot function (varSlot >= 0) the unit is a concatenation
// of three streams behind one item slab, so layout, emission, the unit
// signature, and the slab pool are untouched by multi-versioning:
//
//	[dispatch stub][restore + full body][restore + fast body]
//
// The stub (arch.Emitter.DispatchStub) owns the function entry in the
// relocation map — calls, pointers, and the entry trampoline all
// dispatch — and branches to the fast body when the selector cell at
// selCell is non-zero. The fast body carries only the entry counter
// (sharing the full body's cell) and resolves intra-function control
// flow through fastReloc so hot loops never leave the sparse copy.
func (p *PatchPlan) buildUnit(g *cfg.Graph, f *cfg.Func, cell uint64, varSlot int, selCell uint64) (*planUnit, map[uint64]uint64) {
	u := &planUnit{fn: f, varSlot: -1}
	// Size the item slab up front: one item per instruction plus room
	// for inserted snippets and fall-through branches. Underestimates
	// just regrow the slab (the grown one is what gets recycled).
	est := 0
	for _, blk := range f.Blocks {
		est += len(blk.Instrs) + 1
	}
	if p.req.Payload == instrument.PayloadCounter {
		est += 4 * p.countPoints(f)
	}
	if varSlot >= 0 {
		est = 2*est + 16 // stub, two restores, the fast body
	}
	u.items = getItemSlab(est)
	cells := map[uint64]uint64{}

	if varSlot >= 0 {
		// Dispatch stub. The first instruction claims the function entry
		// in the relocation map (its items precede the full body's, and
		// layout's first claim wins). Target kinds are assigned by
		// instruction kind exactly as for counter snippets, plus the
		// trailing conditional branch resolving through varAddr.
		//
		// A CFI function's entry marker must precede the stub: indirect
		// calls dispatch through the entry's relocMap claim, so the claim
		// has to decode as a marker under CET enforcement. The marker item
		// takes the claim (first claim wins); the full body's own copy of
		// the marker is then redundant but harmless (markers are no-ops).
		if eb, ok := f.BlockAt(f.Entry); ok && len(eb.Instrs) > 0 && eb.Instrs[0].Kind == arch.Mark {
			u.items = append(u.items, planItem{ins: arch.Instr{Kind: arch.Mark}, mapAddr: f.Entry})
		}
		for k, ins := range p.emitter.DispatchStub(p.env, selCell) {
			it := planItem{ins: ins}
			if k == 0 {
				it.mapAddr = f.Entry
			}
			switch ins.Kind {
			case arch.Lea, arch.LeaHi:
				it.tk, it.pf, it.target = tkAbs, arch.FormPCRel, selCell
				it.ins.Imm = 0
			case arch.BranchCond:
				it.tk, it.pf, it.target = tkVarEntry, arch.FormPCRel, uint64(varSlot)
			}
			u.items = append(u.items, it)
		}
		// Fall-through into the full body, which must first recover the
		// register the stub spilled.
		u.items = append(u.items, planItem{ins: arch.VariantRestore()})
	}

	p.appendFullBody(u, g, f, &cell, cells)

	if varSlot >= 0 {
		u.variants, u.varSlot = 1, varSlot
		u.fastStart = len(u.items)
		u.items = append(u.items, planItem{ins: arch.VariantRestore()})
		p.appendFastBody(u, g, f, cells)
	}
	return u, cells
}

// appendFullBody appends the function's fully instrumented body — the
// exact item stream an unguided plan consists of.
func (p *PatchPlan) appendFullBody(u *planUnit, g *cfg.Graph, f *cfg.Func, cell *uint64, cells map[uint64]uint64) {
	add := func(it planItem) { u.items = append(u.items, it) }
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
		// the block's relocMap claim, and CET enforcement requires the
		// landing address to decode as a marker before any inserted
		// snippet runs. Hoist it above the snippet; marker-less blocks
		// take the historical item order byte-for-byte.
		var markAddr uint64
		if len(instrs) > 0 && instrs[0].Kind == arch.Mark {
			ins := instrs[0]
			it := planItem{ins: ins, origAddr: ins.Addr, origLen: ins.EncLen, mapAddr: ins.Addr}
			it.ins.Short = false
			p.classify(g, f, &it)
			add(it)
			markAddr = ins.Addr
			instrs = instrs[1:]
		}
		if p.req.Where == instrument.BlockEntry ||
			(p.req.Where == instrument.FuncEntry && blk.Start == f.Entry) {
			p.addSnippet(u, blk.Start, cell, cells)
		}
		if markAddr != 0 && p.req.WantsAddr(markAddr) {
			p.addSnippet(u, markAddr, cell, cells)
		}
		for _, ins := range instrs {
			if p.req.WantsAddr(ins.Addr) {
				p.addSnippet(u, ins.Addr, cell, cells)
			}
			it := planItem{ins: ins, origAddr: ins.Addr, origLen: ins.EncLen, mapAddr: ins.Addr}
			it.ins.Short = false // relocated branches use the long form
			p.classify(g, f, &it)
			add(it)
		}
		// Reordered blocks whose successor was reached by falling
		// through need an explicit branch to it.
		if last := blk.Last(); last.FallsThrough() && blk.End < f.End {
			needBranch := p.variant.ReverseBlocks && (bi+1 >= len(blocks) || blocks[bi+1].Start != blk.End)
			if needBranch {
				add(planItem{ins: arch.Instr{Kind: arch.Branch}, tk: tkMapped, pf: arch.FormPCRel, target: blk.End})
			}
		}
	}
}

// appendFastBody appends the sparsely instrumented variant: the entry
// block keeps its counter snippet — sharing the full body's cell, so
// either variant feeds the same counter — and every other block is
// relocated without payload. Items register in fastReloc (vmap), never
// in relocMap, and intra-function control transfers become tkLocal so
// they resolve into this copy first.
func (p *PatchPlan) appendFastBody(u *planUnit, g *cfg.Graph, f *cfg.Func, cells map[uint64]uint64) {
	b := p.an.Binary
	for _, blk := range f.Blocks {
		if blk.Start == f.Entry {
			c := cells[f.Entry]
			for k, ins := range instrument.CounterSnippet(b.Arch, b.PIE, c) {
				it := planItem{ins: ins}
				if k == 0 {
					// Entry loops land on the snippet, after the restore:
					// the restore must only run on arrival from the stub.
					it.vmap = f.Entry
				}
				if ins.Kind == arch.Lea || ins.Kind == arch.LeaHi {
					it.tk, it.pf, it.target = tkAbs, arch.FormPCRel, c
					it.ins.Imm = 0
				}
				u.items = append(u.items, it)
			}
		}
		for _, ins := range blk.Instrs {
			it := planItem{ins: ins, origAddr: ins.Addr, origLen: ins.EncLen}
			it.ins.Short = false
			p.classify(g, f, &it)
			if it.tk == tkMapped && it.pf == arch.FormPCRel && it.target >= f.Entry && it.target < f.End {
				switch ins.Kind {
				case arch.Branch, arch.BranchCond, arch.Call:
					it.tk = tkLocal
				}
			}
			it.vmap = ins.Addr
			u.items = append(u.items, it)
		}
	}
}

// addSnippet appends the payload instructions for the point at origAddr.
func (p *PatchPlan) addSnippet(u *planUnit, origAddr uint64, cell *uint64, cells map[uint64]uint64) {
	if p.req.Payload != instrument.PayloadCounter {
		// Empty instrumentation still owns the mapping for the point
		// (the relocated block starts here); no instructions.
		return
	}
	c := *cell
	*cell += 8
	cells[origAddr] = c
	b := p.an.Binary
	seq := instrument.CounterSnippet(b.Arch, b.PIE, c)
	for k, ins := range seq {
		it := planItem{ins: ins}
		if k == 0 {
			it.mapAddr = origAddr
		}
		if ins.Kind == arch.Lea || ins.Kind == arch.LeaHi {
			it.tk, it.pf, it.target = tkAbs, arch.FormPCRel, c
			it.ins.Imm = 0
		}
		u.items = append(u.items, it)
	}
}

// classify decides how the item's operand is re-resolved.
func (p *PatchPlan) classify(g *cfg.Graph, f *cfg.Func, it *planItem) {
	ins := it.ins
	a := ins.Addr
	if ci, ok := p.baseSite[a]; ok {
		it.tk, it.target = tkClone, uint64(ci)
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
	if ci, ok := p.funcSite[a]; ok {
		// The compressed-table base must be the relocated unit start:
		// under block reordering the entry block may not come first.
		it.tk, it.pf, it.target = tkFuncBase, arch.FormPCRel, uint64(ci)
		return
	}
	if ci, ok := p.widenLoad[a]; ok && p.clones[ci].tbl.EntrySize < 4 {
		it.ins.Size, it.ins.Scale = 4, 4
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
		if v, ok := p.codePtrImm[a]; ok && p.mode == ModeFuncPtr {
			it.tk, it.pf, it.target = tkMapped, arch.FormImmAbs, v
		}
	case arch.MovImm16, arch.MovK16:
		if v, ok := p.codePtrImm[a]; ok && p.mode == ModeFuncPtr {
			it.tk, it.pf, it.target = tkMapped, arch.FormImmHi16, v
		}
	case arch.Throw, arch.Syscall:
		it.ra = raSelf
	}
}

// mapsTo reports whether an original code address belongs to a function
// being relocated (so control flow to it must be retargeted).
func (p *PatchPlan) mapsTo(g *cfg.Graph, addr uint64) bool {
	f, ok := g.FuncContaining(addr)
	return ok && p.instrumented[f.Name]
}

// runIndexed runs body(0..n-1) on up to jobs workers (serially when jobs
// <= 1). Bodies must write only their own index's slots.
func runIndexed(n, jobs int, body func(int)) {
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i >= int64(n) {
					return
				}
				body(int(i))
			}
		}()
	}
	wg.Wait()
}
