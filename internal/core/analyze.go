package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"icfgpatch/internal/analysis"
	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/cfg"
	"icfgpatch/internal/dataflow"
	"icfgpatch/internal/profile"
)

// AnalysisConfig identifies one analysis variant of a binary: everything
// Analyze consumes besides the binary itself. Two rewrites of the same
// binary with the same config share all analysis work, whatever their
// instrumentation request. Options.AnalysisConfig derives it; the
// rewrite service, which serves no Variant, keys cached analyses by the
// binary's hash and the wire encoding of Mode and NoEvidence.
type AnalysisConfig struct {
	Mode    Mode
	Variant Variant
	// NoEvidence disables the landing-pad evidence layer: the binary is
	// analysed as if it carried no markers, taking the historical
	// conservative path everywhere. It IS part of the analysis identity
	// (unlike Trace/Units): with evidence engaged a func-ptr analysis of
	// a CFI binary can differ from the conservative one, so the two must
	// never share cache entries.
	NoEvidence bool
	// Units, when non-nil, is the function-keyed second store level:
	// Analyze pulls unchanged functions' units from it and deposits
	// freshly computed ones, turning a whole-binary analysis of a new
	// version into a delta over the previous one. It is NOT part of the
	// analysis identity — the assembled Analysis is byte-for-byte the one
	// a cold run would produce — and it is cleared before the config is
	// retained.
	Units *UnitStore
}

// Analysis is the request-independent product of analysing one binary:
// the CFG with jump-table resolution, function-pointer sites (func-ptr
// mode), and lazily computed per-function trampoline placement inputs
// (CFL blocks, liveness, superblocks). It is read-only after Analyze
// returns, so one Analysis may serve any number of concurrent Patch
// calls — the rewrite-service warm path.
type Analysis struct {
	Binary *bin.Binary
	Config AnalysisConfig
	Graph  *cfg.Graph
	// PtrSites holds the function-pointer analysis result (func-ptr mode
	// only; nil otherwise).
	PtrSites []analysis.PtrSite
	// Evidence is the landing-pad evidence layer the analysis ran under:
	// marker index, trust decision, and per-source attribution. Never nil
	// (marker-less and NoEvidence analyses carry untrusted evidence).
	Evidence *analysis.Evidence
	// Metrics records the analysis-phase stage timings (cfg,
	// funcptr-analysis). Patch copies them into its Result so a cold
	// Rewrite reports the same stage shape as before the split; a warm
	// Patch reports the timings of the cached analysis.
	Metrics Metrics
	// FuncUnits are the per-function analysis units the graph was
	// assembled from, in address order: FuncUnits[i].Fn is
	// Graph.Funcs[i].
	FuncUnits []*FuncUnit
	// RecomputedNames lists the functions this analysis recomputed
	// rather than reused from the unit store, in symbol-table order —
	// the delta engine's audit trail: tests assert it stays within
	// changed functions plus dependents. The counts are
	// Metrics.FuncsReused and Metrics.FuncsRecomputed.
	RecomputedNames []string

	// padding is the text's inter-function padding, which every Patch
	// donates to the scratch pool; the sweep finds it.
	padding [][2]uint64
}

// funcPlacement caches one function's trampoline placement inputs.
// The once guards single-flight computation across concurrent Patch
// calls; the fields are read-only afterwards. The memo lives inside the
// function's FuncUnit, so a reused unit carries its placement across
// binary versions — placement depends only on the function's CFG, the
// mode/variant (part of the unit key), and the binary-wide exception
// flag (part of the unit identity). Liveness has its own once: only a
// trampoline that needs a scratch register asks for it (scratchAt), so
// most functions never compute it.
type funcPlacement struct {
	once sync.Once
	cfl  []uint64 // CFL block starts, sorted and deduplicated
	sbs  []superblock

	lvOnce sync.Once
	lv     *dataflow.Liveness
}

// Analyze runs every rewrite pass that is independent of the
// instrumentation request, assembling a whole-binary Analysis from
// function-granular units:
//
//  1. function table — symbols, or entry discovery for stripped
//     binaries — and, with a unit store, each function's content hash;
//  2. the text sweep, cut along the table — boundary hints, the
//     landing-pad evidence and its trust decision, padding — with
//     unchanged functions' shares taken from the unit store's scan memo;
//  3. assembly — without a store, a BuildFunc run per function; with
//     one (cfgc.Units), assembleUnits: each function's content-addressed
//     unit ID, then a validated unit from the store or a fresh BuildFunc
//     run with the resolver's read set recorded; then the whole-binary
//     graph, variant adjustments, and function-pointer analysis in
//     func-ptr mode.
//
// The result is cacheable: Patch applies any number of instrumentation
// requests to it without repeating this work.
func Analyze(b *bin.Binary, cfgc AnalysisConfig) (*Analysis, error) {
	mx := Metrics{}
	clock := time.Now()
	units := cfgc.Units
	cfgc.Units = nil // never retained by the (cacheable) Analysis
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("core: input binary invalid: %w", err)
	}

	// Pass 1: the function table.
	text := b.Text()
	if text == nil {
		return nil, fmt.Errorf("core: CFG construction: cfg: binary has no text section")
	}
	syms := b.FuncSymbols()
	stripped := len(syms) == 0
	if stripped {
		// Stripped binary: recover function entries first, as Dyninst's
		// parser does (the paper's libcuda.so is stripped). Discovery is
		// re-run per version — it is cheap and global — and the delta
		// applies per recovered fn_<addr> function.
		ds, err := cfg.DiscoverFunctions(b)
		if err != nil {
			return nil, fmt.Errorf("core: CFG construction: %w", err)
		}
		syms = ds
	}
	pads, err := cfg.UnwindTable(b)
	if err != nil {
		return nil, fmt.Errorf("core: CFG construction: %w", err)
	}
	// Content hashes, unit identities, read recordings and dependency
	// edges serve only the unit store's reuse validation; a cold
	// analysis (no store) computes none of them.
	var hashes [][32]byte
	if units != nil {
		hashes = b.FuncContentHashes(syms)
	}

	// Pass 2: one sweep of .text, cut along the function table, yields
	// the jump-table boundary hints, the evidence scan and the padding
	// the patcher donates to scratch space. With a unit store, unchanged
	// functions' shares of it come from the scan memo. The evidence must
	// be settled before any unit is keyed, because the trust decision
	// changes CFG construction (mark-bounded jump tables) and so must be
	// part of every unit's identity.
	in := analysis.SweepInput{Funcs: syms, Evidence: !cfgc.NoEvidence}
	if units != nil {
		in.IDs, in.Memo = hashes, units.scans
	}
	resolver, ev, padding := analysis.SweepFuncs(b, in)
	if stripped {
		// Padding lies between symbols; with none, the whole text is the
		// one gap, however discovery cut it.
		padding = nil
		if analysis.PaddingGap(b, text.Addr, text.End()) {
			padding = [][2]uint64{{text.Addr, text.End()}}
		}
	}
	resolver.Strict = cfgc.Variant.StrictJumpTableBounds
	useMarks := cfgc.Mode == ModeFuncPtr && ev.Trusted
	if useMarks {
		// Marker evidence engages only in func-ptr mode, where it converts
		// refusal into sound acceptance; dir/jt stay byte-identical to the
		// conservative path. The environment's trust bit forks the unit
		// identity so trusted and conservative units never validate
		// against each other.
		resolver.UseMarks(ev.Marks)
	}

	var fus []*FuncUnit
	var recomputed []string
	if units == nil {
		// Pass 3, cold: build every function. The units carry no key,
		// read set or dependency edges, since no store will validate
		// them, and share one allocation.
		slab := make([]FuncUnit, len(syms))
		fus = make([]*FuncUnit, 0, len(syms))
		for _, sym := range syms {
			if sym.Size == 0 {
				continue
			}
			u := &slab[len(fus)]
			u.Name, u.Fn = sym.Name, buildFunc(b, text, sym, pads, resolver, cfgc.Variant)
			fus = append(fus, u)
			recomputed = append(recomputed, sym.Name)
		}
		mx.FuncsRecomputed = len(fus)
	} else {
		// Pass 3 with a store: identities, then reuse or rebuild.
		fus, recomputed = assembleUnits(b, text, syms, hashes, pads, resolver, cfgc, units, useMarks, &mx)
	}
	funcs := make([]*cfg.Func, len(fus))
	for i, u := range fus {
		funcs[i] = u.Fn
	}
	g := cfg.Assemble(b, funcs)
	if cfgc.Variant.FailOnAnyError {
		for _, f := range g.Funcs {
			if f.Err != nil {
				return nil, fmt.Errorf("core: all-or-nothing rewriting failed: %w", f.Err)
			}
		}
	}
	mx.lap(StageCFG, &clock)

	// Function pointer analysis gates func-ptr mode (Section 5.2): it is
	// only safe when every pointer is identified precisely.
	var ptrSites []analysis.PtrSite
	if cfgc.Mode == ModeFuncPtr {
		sites, err := ev.FuncPointers(b, g)
		if err != nil {
			if errors.Is(err, analysis.ErrImprecise) {
				return nil, fmt.Errorf("%w: %v", ErrImpreciseFuncPtrs, err)
			}
			return nil, fmt.Errorf("core: function pointer analysis: %w", err)
		}
		ptrSites = sites
	}
	// Deposit the jump-table source's attribution (tables resolved,
	// mark-bounded count) into the evidence layer.
	resolver.Attribute(ev)
	mx.lap(StageFuncPtr, &clock)

	return &Analysis{
		Binary: b, Config: cfgc, Graph: g, PtrSites: ptrSites, Metrics: mx,
		Evidence: ev, FuncUnits: fus, RecomputedNames: recomputed, padding: padding,
	}, nil
}

// placement returns the cached placement inputs of Graph.Funcs[i],
// computing them on first use. CFL sets and superblocks depend only on
// inputs folded into the unit identity — so the memo lives in the
// function's unit and is shared read-only by every Patch on every
// Analysis the unit is assembled into.
func (an *Analysis) placement(i int) *funcPlacement {
	u := an.FuncUnits[i]
	f, p := u.Fn, &u.place
	p.once.Do(func() {
		v := an.Config.Variant
		p.cfl = cflSet(an.Binary, f, an.Config.Mode, v)
		p.sbs = superblocks(f, p.cfl)
		if v.NoSuperblocks {
			for i := range p.sbs {
				if blk, ok := f.BlockAt(p.sbs[i].Start); ok {
					if n := blk.Len() - int(p.sbs[i].Start-blk.Start); n < p.sbs[i].Space {
						p.sbs[i].Space = n
					}
				}
			}
		}
	})
	return p
}

// scratchAt returns the register liveness finds dead at addr, a block
// start of Graph.Funcs[i], computing the function's liveness on first
// need. Only the ppc and a64 long forms ask: an x64 trampoline needs no
// register.
func (an *Analysis) scratchAt(i int, addr uint64) arch.Reg {
	u := an.FuncUnits[i]
	p := &u.place
	p.lvOnce.Do(func() { p.lv = dataflow.ComputeLiveness(an.Binary.Arch, u.Fn) })
	return p.lv.DeadAt(addr)
}

// ProfileFromHeat aggregates a heat map captured by an emulated run
// (emu.Options.CaptureHeat, keyed by link-time address) into a profile
// artifact over this analysis's CFG. binaryHash is the content hash of
// the binary the heat was captured on; heat samples that land outside
// any known function are dropped.
func (an *Analysis) ProfileFromHeat(binaryHash string, heat map[uint64]uint64) *profile.Profile {
	fbs := make([]profile.FuncBlocks, 0, len(an.Graph.Funcs))
	for _, f := range an.Graph.Funcs {
		fb := profile.FuncBlocks{Name: f.Name, Entry: f.Entry, Blocks: make([]uint64, 0, len(f.Blocks))}
		for _, blk := range f.Blocks {
			fb.Blocks = append(fb.Blocks, blk.Start)
		}
		fbs = append(fbs, fb)
	}
	return profile.Build(binaryHash, an.Binary.Arch, fbs, heat)
}
