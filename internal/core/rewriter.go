package core

import (
	"fmt"
	"sort"
	"time"

	"icfgpatch/internal/analysis"
	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/rtlib"
)

// Rewrite performs incremental CFG patching on the binary and returns
// the rewritten image. The input binary is not modified, so one binary
// may be shared read-only by concurrent Rewrite calls.
//
// Rewrite is Analyze followed by Patch: callers that rewrite the same
// binary repeatedly with different instrumentation sets should run
// Analyze once (or hit it in a store.Store) and Patch per request.
func Rewrite(b *bin.Binary, opts Options) (*Result, error) {
	an, err := Analyze(b, opts.AnalysisConfig())
	if err != nil {
		return nil, err
	}
	return an.Patch(opts)
}

// preparePatch validates the request against the analysis configuration
// and normalises it: arbitrary instrumentation points restrict
// relocation to the functions that contain them (partial
// instrumentation).
func (an *Analysis) preparePatch(opts Options) (Options, error) {
	if got := opts.AnalysisConfig(); got != an.Config {
		return opts, fmt.Errorf("core: patch options %+v do not match the analysis config %+v", got, an.Config)
	}
	if opts.Request.Where == instrument.AtAddrs && opts.Request.Funcs == nil {
		var names []string
		seen := map[string]bool{}
		for _, addr := range opts.Request.Addrs {
			if f, ok := an.Graph.FuncContaining(addr); ok && !seen[f.Name] {
				seen[f.Name] = true
				names = append(names, f.Name)
			}
		}
		opts.Request.Funcs = names
	}
	return opts, nil
}

// plan runs the first two stages of the staged pipeline for one
// request, lapping each into mx: plan (target-neutral IR, with the
// counter region directly above the loaded image) and layout (section
// plan, clone placement, address fixpoint).
func (an *Analysis) plan(opts Options, mx *Metrics, clock *time.Time) (*PatchPlan, error) {
	opts, err := an.preparePatch(opts)
	if err != nil {
		return nil, err
	}
	p := newPatchPlan(an, opts, alignUp(an.Binary.MaxLoadedAddr(), sectionGap)+sectionGap)
	if opts.Variant.ReverseFuncs {
		p.reverseUnits()
	}
	mx.lap(StagePlan, clock)
	if err := p.layoutAll(opts); err != nil {
		return nil, err
	}
	mx.lap(StageLayout, clock)
	return p, nil
}

// Patch applies one instrumentation request to an analysed binary
// through the staged pipeline — plan (target-neutral IR), layout
// (address assignment), emit (per-arch encoding) — then installs
// trampolines, rewrites function pointers, and emits the new sections.
// The analysis is not mutated, so concurrent Patch calls may share it;
// opts must carry the analysis identity the analysis was built with
// (Options.AnalysisConfig).
func (an *Analysis) Patch(opts Options) (*Result, error) {
	b, g, ptrSites := an.Binary, an.Graph, an.PtrSites
	mx := Metrics{
		Stages:          append([]StageMetric(nil), an.Metrics.Stages...),
		Trampolines:     map[arch.TrampolineClass]int{},
		FuncsReused:     an.Metrics.FuncsReused,
		FuncsRecomputed: an.Metrics.FuncsRecomputed,
	}
	clock := time.Now()
	p, err := an.plan(opts, &mx, &clock)
	if err != nil {
		return nil, err
	}
	mx.ClonedTables = len(p.clones)

	// Copy-on-write clone: section contents stay shared with the input
	// until a write detaches them, so a patch that touches only .text
	// and a few pointer slots never copies the rest of the image
	// (DESIGN.md §11's zero-copy section assembly).
	nb := b.CloneShared()
	stats := Stats{
		OrigLoadedSize: b.LoadedSize(),
		TotalFuncs:     len(g.Funcs),
	}
	if ev := an.Evidence; ev != nil {
		stats.MarkSites = ev.Marks.Count()
		stats.EvidenceTrusted = ev.Trusted
		stats.EvidenceSkips = ev.Skipped
		stats.MarkBoundedTables = ev.MarkBoundedTables
	}
	var cells map[uint64]uint64
	if opts.Request.Payload == instrument.PayloadCounter {
		cells = p.counterCells()
	}
	for i, f := range g.Funcs {
		if p.instrumented[i] {
			stats.InstrumentedFuncs++
		} else if f.Err != nil {
			stats.SkippedFuncs = append(stats.SkippedFuncs, f.Name)
		}
	}
	// Every hot function receives exactly one fast variant.
	stats.HotFuncs, stats.VariantFuncs = len(p.varAddr), len(p.varAddr)

	// Stage 3: emit — per-unit encoding.
	instrData, cloneData, raPairs, encoded, err := p.emit()
	if err != nil {
		return nil, err
	}
	mx.PatchFuncsReencoded = encoded
	// Nothing after the emit stage reads plan items; recycle the slabs
	// for the next Patch.
	p.release()
	mx.lap(StageEmit, &clock)

	// Apply the section plan: move dynamic-linking sections, retiring
	// the originals as scratch space (Section 3).
	pool := newScratchPool(b.Arch.InstrAlign())
	for _, mv := range p.sections.moves {
		old := nb.Section(mv.name)
		// Zero-copy move: the relocated section aliases the retired
		// range's current (original) bytes. When the retired range is
		// later written as trampoline scratch, WriteAt's copy-on-write
		// detaches the old section's copy and this alias keeps the
		// pristine contents — the layout window permits sharing exactly
		// because moves happen before any scratch write.
		moved := bin.NewSharedSection(mv.name, mv.addr, old)
		old.Name = bin.OldPrefix + mv.name
		// The retired range becomes trampoline scratch space, so it must
		// be executable from now on.
		old.Flags |= bin.FlagExec
		if _, err := nb.AddSection(moved); err != nil {
			return nil, err
		}
		if mv.scratch {
			pool.add(mv.oldAddr, mv.oldEnd)
		}
	}

	// Patch the original text: verification fill, then trampolines.
	text := nb.Text()
	if opts.Verify {
		for _, u := range p.units {
			fillTextIllegal(b.Arch, text, u.fn)
		}
	}
	for _, pr := range an.padding {
		pool.add(pr[0], pr[1])
	}

	var trapPairs []bin.AddrPair
	type hopJob struct {
		sb      superblock
		to      uint64
		scratch scratchSite
		heat    uint64
	}
	var deferred []hopJob
	for _, ft := range p.tramps {
		mx.CFLBlocks += ft.cflBlocks()
		mx.ScratchBlocks += ft.scratchBlocks()
		for _, planned := range ft.pl.sbs {
			to, ok := p.reloc.get(planned.Start)
			if !ok {
				return nil, fmt.Errorf("core: CFL block %#x in %s has no relocated address", planned.Start, ft.fn.Name)
			}
			sb, err := preserveMark(nb, planned)
			if err != nil {
				return nil, err
			}
			scratch := scratchSite{an: an, idx: ft.idx, block: planned.Block.Start}
			tr, ok := directOrLong(b, sb, to, scratch)
			if !ok {
				deferred = append(deferred, hopJob{sb: sb, to: to, scratch: scratch, heat: p.profCount[ft.fn.Name]})
				continue
			}
			if err := installTrampoline(nb, tr, pool, sb, &mx); err != nil {
				return nil, err
			}
		}
	}
	// Second pass: multi-hop through accumulated scratch space, then
	// trap as the last resort. Under profile guidance the hottest
	// functions go first, winning the scarce close-range scratch space
	// while cold functions absorb the trap cost. The stable sort keeps
	// the unguided (deterministic symbol) order within equal heat, so a
	// trivial profile changes nothing.
	if p.prof != nil {
		sort.SliceStable(deferred, func(i, j int) bool { return deferred[i].heat > deferred[j].heat })
	}
	for _, job := range deferred {
		tr, hop, ok := multiHop(b, job.sb, job.to, job.scratch, pool)
		if ok {
			tr.Class = arch.TrampMulti
			if err := installTrampoline(nb, tr, pool, job.sb, &mx); err != nil {
				return nil, err
			}
			if err := writeTrampoline(nb, hop); err != nil {
				return nil, err
			}
			continue
		}
		trap := arch.NewTrapTrampoline(b.Arch, job.sb.Start, job.to)
		if err := installTrampoline(nb, trap, pool, job.sb, &mx); err != nil {
			return nil, err
		}
		trapPairs = append(trapPairs, bin.AddrPair{From: trap.From, To: trap.To})
	}
	var trapSites []uint64
	for _, tp := range trapPairs {
		trapSites = append(trapSites, tp.From)
	}
	mx.lap(StageTrampolines, &clock)

	// Function pointer rewriting (data slots and relocations).
	for _, site := range ptrSites {
		newVal, ok := p.reloc.get(site.Value)
		if !ok {
			continue // target not relocated; pointer stays valid
		}
		switch site.Kind {
		case analysis.PtrReloc:
			for i := range nb.Relocs {
				if nb.Relocs[i].Off == site.Slot && nb.Relocs[i].Kind == bin.RelocRelative {
					nb.Relocs[i].Addend = int64(newVal)
				}
			}
			if err := writeU64(nb, site.Slot, newVal); err != nil {
				return nil, err
			}
			stats.RewrittenPtrs++
		case analysis.PtrDataCell:
			if err := writeU64(nb, site.Slot, newVal); err != nil {
				return nil, err
			}
			stats.RewrittenPtrs++
		case analysis.PtrCodeImm:
			stats.RewrittenPtrs++ // patched during relocation
		}
	}
	mx.lap(StagePointers, &clock)

	// New sections.
	if p.nextCell > p.counterBase {
		if _, err := nb.AddSection(&bin.Section{
			Name: ".icfg.counters", Addr: p.counterBase,
			Data:  make([]byte, p.nextCell-p.counterBase),
			Flags: bin.FlagAlloc | bin.FlagWrite, Align: 8,
		}); err != nil {
			return nil, err
		}
	}
	if p.selEnd > p.selBase {
		// Selector cells default to 1: the fast variant runs until a
		// runtime flips a cell to 0 to re-enable full instrumentation for
		// that function — the overhead reduction is the shipped default.
		sel := make([]byte, p.selEnd-p.selBase)
		for i := 0; i < len(sel); i += 8 {
			sel[i] = 1
		}
		if _, err := nb.AddSection(&bin.Section{
			Name: ".icfg.select", Addr: p.selBase, Data: sel,
			Flags: bin.FlagAlloc | bin.FlagWrite, Align: 8,
		}); err != nil {
			return nil, err
		}
	}
	if len(cloneData) > 0 {
		if _, err := nb.AddSection(&bin.Section{
			Name: bin.SecJTClone, Addr: p.sections.cloneBase, Data: cloneData,
			Flags: bin.FlagAlloc, Align: 8,
		}); err != nil {
			return nil, err
		}
	}
	if _, err := nb.AddSection(&bin.Section{
		Name: bin.SecInstr, Addr: p.instrBase, Data: instrData,
		Flags: bin.FlagAlloc | bin.FlagExec, Align: instrAlign,
	}); err != nil {
		return nil, err
	}
	after := alignUp(p.instrBase+uint64(len(instrData)), sectionGap) + sectionGap
	if _, err := nb.AddSection(&bin.Section{
		Name: bin.SecTrampMap, Addr: after, Data: bin.EncodeAddrMap(trapPairs),
		Flags: bin.FlagAlloc, Align: 8,
	}); err != nil {
		return nil, err
	}
	after = alignUp(after+uint64(len(trapPairs)*16+8), sectionGap) + sectionGap

	// Return-address map for binaries whose language runtime unwinds
	// the stack (Section 6).
	if (b.UsesExceptions() || b.GoRuntime()) && !opts.NoRAMap {
		if _, err := nb.AddSection(&bin.Section{
			Name: bin.SecRAMap, Addr: after, Data: bin.EncodeAddrMap(raPairs),
			Flags: bin.FlagAlloc, Align: 8,
		}); err != nil {
			return nil, err
		}
		stats.RAMapEntries = len(raPairs)
		if b.UsesExceptions() {
			nb.Meta[rtlib.MetaWrapUnwind] = "1"
		}
		if b.GoRuntime() {
			// Section 6.2: the Go path instruments runtime.findfunc and
			// runtime.pcvalue; they must exist.
			if _, ok := b.SymbolByName("runtime.findfunc"); !ok {
				return nil, fmt.Errorf("core: go binary lacks runtime.findfunc symbol")
			}
			if _, ok := b.SymbolByName("runtime.pcvalue"); !ok {
				return nil, fmt.Errorf("core: go binary lacks runtime.pcvalue symbol")
			}
			nb.Meta[rtlib.MetaGoPatch] = "1"
		}
	}

	stats.NewLoadedSize = nb.LoadedSize()
	if err := nb.Validate(); err != nil {
		return nil, fmt.Errorf("core: rewritten binary invalid: %w", err)
	}
	mx.lap(StageFinalize, &clock)
	mx.ScratchBytesHarvested = pool.harvested
	mx.ScratchBytesFree = pool.total()
	mx.AnalysisFailures = len(stats.SkippedFuncs)
	res := &Result{Binary: nb, Stats: stats, Metrics: mx, CounterCells: cells, TrapSites: trapSites, reloc: p.reloc}
	res.pooled = append(res.pooled, instrData)
	if len(cloneData) > 0 {
		res.pooled = append(res.pooled, cloneData)
	}
	return res, nil
}
