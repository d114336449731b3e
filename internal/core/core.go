// Package core implements incremental CFG patching, the paper's primary
// contribution: a general binary rewriting approach that balances
// runtime overhead and generality by combining trampoline-based code
// patching with as much binary analysis as the binary supports.
//
// The pipeline (Figure 1):
//
//  1. Build the CFG with jump-table analysis (packages cfg, analysis);
//     functions whose analysis fails gracefully are skipped — partial
//     instrumentation instead of all-or-nothing failure.
//  2. Compute control-flow-landing (CFL) blocks per the selected mode:
//     dir keeps jump-table targets CFL, jt clones jump tables, func-ptr
//     additionally rewrites function pointer definitions. Catch blocks
//     stay CFL in every mode (the unwinder resumes at original
//     addresses); entry blocks always get trampolines so calls from
//     unanalysable code keep instrumentation integrity.
//  3. Run trampoline placement analysis (Section 4): every non-CFL
//     block is a scratch block, CFL blocks extend over following
//     scratch blocks into trampoline superblocks.
//  4. Relocate instrumented functions into .instr, fixing direct
//     control flow, re-resolving PC-relative data references (with
//     island/adrp expansion when ranges no longer reach), patching
//     jump-table dispatches onto cloned tables, inserting payload
//     snippets, and recording the return-address map.
//  5. Install trampolines: direct branch, long sequence, multi-hop via
//     scratch space (padding bytes, unused superblock space, retired
//     dynamic-linking sections), trap as the last resort (Section 7).
//  6. Emit the rewritten binary: patched .text, new .instr, .ra_map,
//     .tramp_map, cloned tables, moved dynamic sections, counters.
package core

import (
	"errors"
	"fmt"

	"icfgpatch/internal/bin"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/profile"
)

// Mode selects how much indirect control flow is rewritten (Section 5).
type Mode uint8

// Rewriting modes, in increasing reliance on binary analysis.
const (
	// ModeDir rewrites direct control flow only; jump-table target
	// blocks remain CFL blocks.
	ModeDir Mode = iota
	// ModeJT additionally clones jump tables so intra-procedural
	// indirect jumps stay in relocated code.
	ModeJT
	// ModeFuncPtr additionally rewrites function pointer definitions;
	// it refuses binaries whose pointers cannot be identified precisely.
	ModeFuncPtr
)

// String names the mode as in the paper's tables.
func (m Mode) String() string {
	switch m {
	case ModeDir:
		return "dir"
	case ModeJT:
		return "jt"
	case ModeFuncPtr:
		return "func-ptr"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// ErrImpreciseFuncPtrs is returned by ModeFuncPtr when function-pointer
// analysis cannot be precise (the safety requirement of Section 5.2);
// callers fall back to ModeJT, exactly as the paper does for Docker.
var ErrImpreciseFuncPtrs = errors.New("core: function pointer analysis is not precise for this binary")

// Options configure one rewrite.
type Options struct {
	Mode    Mode
	Request instrument.Request
	// Verify overwrites every relocated original code byte that is not
	// a trampoline with an illegal instruction — the paper's strong
	// correctness test (Section 8).
	Verify bool
	// InstrGap forces a minimum distance between the original image and
	// .instr, used by experiments to stress branch ranges (a 120MiB
	// .text has the same effect on ppc64le's ±32MB branch).
	InstrGap uint64
	// NoRAMap suppresses return-address map emission even for binaries
	// that need it, to demonstrate the resulting failures.
	NoRAMap bool
	// NoEvidence disables the landing-pad evidence layer, analysing the
	// binary as if it carried no markers (the historical conservative
	// path). Part of the analysis — and therefore cache — identity; see
	// AnalysisConfig.NoEvidence.
	NoEvidence bool
	// Variant selects baseline behaviours (package baseline); the zero
	// value is incremental CFG patching as published.
	Variant Variant
	// Profile, when non-nil and non-trivial, guides the rewrite: hot
	// functions (per Profile.HotFuncs) get a second, sparsely
	// instrumented variant body selected by a per-function dispatch
	// stub, and hot functions win the scarce short-branch trampoline
	// scratch first. Guidance is advisory — a nil, trivial, or corrupt
	// profile produces exactly the unguided single-variant output — and
	// participates in cache identity through Profile.Hash (same binary +
	// same profile ⇒ byte-identical output on every execution path).
	// Variant planning engages only for full block-entry counter
	// requests on the paper's published configuration (zero Variant);
	// ablation baselines and other request shapes ignore the profile's
	// variant half but still use its trampoline ordering.
	Profile *profile.Profile
}

// AnalysisConfig returns o's analysis identity, the fields Analyze
// consumes; callers set Units on the result.
func (o Options) AnalysisConfig() AnalysisConfig {
	return AnalysisConfig{Mode: o.Mode, Variant: o.Variant, NoEvidence: o.NoEvidence}
}

// Variant toggles the design decisions that distinguish the paper's
// approach from the baselines it is evaluated against. Each knob removes
// one of the paper's techniques, so the baselines (package baseline) are
// ablations of the same engine rather than separate reimplementations.
type Variant struct {
	// TrampolineEveryBlock installs a trampoline at every basic block
	// (SRBI's placement), instead of only at CFL blocks.
	TrampolineEveryBlock bool
	// NoSuperblocks limits each trampoline to its own block's bytes —
	// no scratch-block extension (pre-trampoline-placement-analysis
	// behaviour).
	NoSuperblocks bool
	// NoScratchSections forgoes retired dynamic-linking sections as
	// multi-hop scratch space.
	NoScratchSections bool
	// CallEmulation replaces runtime RA translation with call emulation
	// (Multiverse/SRBI): emitted code pushes the ORIGINAL return
	// address, so returns land in original code and every call
	// fall-through block needs a trampoline. Implemented on X64 only —
	// like Dyninst-10.2 — and with that implementation's bug: indirect
	// calls through stack memory are not emulated, so unwinding through
	// them sees relocated addresses.
	CallEmulation bool
	// NoTailCallHeuristic disables the gap-based indirect tail call
	// rescue, failing such functions (lower coverage, as SRBI).
	NoTailCallHeuristic bool
	// StrictJumpTableBounds disables Assumption-2 bound extension: a
	// jump table without a visible bounds check fails its function.
	StrictJumpTableBounds bool
	// FailOnAnyError makes rewriting all-or-nothing (IR lowering): one
	// unanalysable function fails the whole binary.
	FailOnAnyError bool
	// NoTrampolines emits no trampolines at all (IR lowering: the
	// relocated code IS the new program; nothing may land in old text).
	NoTrampolines bool
	// ReverseFuncs relocates functions in reverse order (the BOLT
	// comparison's function reordering experiment).
	ReverseFuncs bool
	// ReverseBlocks relocates each function's blocks in reverse order,
	// materialising explicit branches for broken fall-throughs (the
	// block reordering experiment).
	ReverseBlocks bool
}

// Stats describes the rewritten binary: coverage, sizes, skipped
// functions, rewritten pointers, the RA map, profile guidance and
// landing-pad evidence. What the pipeline did to produce it (stages,
// placement counters, the delta split) is Metrics; no fact is in both.
type Stats struct {
	TotalFuncs        int
	InstrumentedFuncs int
	SkippedFuncs      []string
	RewrittenPtrs     int
	RAMapEntries      int
	OrigLoadedSize    uint64
	NewLoadedSize     uint64
	// HotFuncs / VariantFuncs report profile guidance: how many
	// instrumented functions the profile classified hot, and how many of
	// those received a fast variant body plus dispatch stub.
	HotFuncs     int
	VariantFuncs int
	// Landing-pad evidence attribution (analysis.Evidence): marker sites
	// indexed, whether the marker evidence was trusted, candidate
	// pointers soundly skipped instead of refused (func-ptr mode), and
	// jump tables whose inexact bounds were tightened at an unmarked
	// entry.
	MarkSites         int
	EvidenceTrusted   bool
	EvidenceSkips     int
	MarkBoundedTables int
}

// Coverage returns the instrumented fraction of functions, the paper's
// coverage metric.
func (s Stats) Coverage() float64 {
	if s.TotalFuncs == 0 {
		return 1
	}
	return float64(s.InstrumentedFuncs) / float64(s.TotalFuncs)
}

// SizeIncrease returns the loaded-size growth ratio (the size(1) model).
func (s Stats) SizeIncrease() float64 {
	if s.OrigLoadedSize == 0 {
		return 0
	}
	return float64(s.NewLoadedSize)/float64(s.OrigLoadedSize) - 1
}

// Result is a completed rewrite.
type Result struct {
	Binary *bin.Binary
	Stats  Stats
	// Metrics records per-pass stage timings and the placement counters
	// (the experiment pipeline aggregates them across cells).
	Metrics Metrics
	// CounterCells maps the original address of each instrumented point
	// to its counter cell (PayloadCounter only).
	CounterCells map[uint64]uint64
	// TrapSites lists the original addresses where trap trampolines had
	// to be installed (experiments correlate them with function kinds,
	// e.g. library destructors).
	TrapSites []uint64

	// pooled holds the emit-stage buffers backing the result's .instr
	// and clone sections, returnable to the emit pool via Recycle.
	pooled [][]byte
	reloc  relocTable
}

// Relocated returns the new address of a relocated original
// instruction address.
func (r *Result) Relocated(addr uint64) (uint64, bool) { return r.reloc.get(addr) }

// Recycle returns the result's pooled emit buffers for reuse by later
// Patch calls. The rewritten Binary (and any slice derived from its
// sections) must not be used after Recycle — serialise it first. The
// steady-state service loop is the intended caller: marshal the image,
// recycle the result. Recycle is idempotent; calling it on a result
// whose buffers were never pooled is a no-op.
func (r *Result) Recycle() {
	for _, buf := range r.pooled {
		putEmitBuf(buf)
	}
	r.pooled = nil
}

// Section and layout constants.
const (
	// instrAlign aligns each relocated function in .instr.
	instrAlign = 16
	// sectionGap separates newly added sections.
	sectionGap = 0x1000
)
