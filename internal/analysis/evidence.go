package analysis

import (
	"encoding/binary"
	"slices"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
)

// SourceKind identifies one target-evidence source. Indirect-control-flow
// resolution is layered over these sources in rank order: the landing-pad
// source runs first (it establishes the marker ground truth every later
// source is validated against), then the three pointer sources in the
// order the conservative analysis has always scanned them, and finally
// the jump-table source, which contributes bound decisions made during
// CFG construction.
type SourceKind uint8

// Evidence sources, in rank order.
const (
	// SourceLandingPad is the CET-style marker evidence: arch.Mark
	// instructions at indirect-transfer targets, scanned before any
	// other source and used to validate (or refute) their candidates.
	SourceLandingPad SourceKind = iota
	// SourceReloc is a runtime relocation whose value is a code address
	// (the PIE case Egalito and RetroWrite rely on).
	SourceReloc
	// SourceDataCell is an 8-byte initialised data cell holding a code
	// address in position dependent binaries.
	SourceDataCell
	// SourceCodeImm is a code-materialised pointer: a movimm (X64) or a
	// movz/movk pair (fixed-width ISAs) whose composed value is a code
	// address.
	SourceCodeImm
	// SourceJumpTable is the jump-table bound logic: table targets
	// resolved (and, with markers, bound-validated) during CFG
	// construction.
	SourceJumpTable
)

var sourceNames = [...]string{
	SourceLandingPad: "landing-pad", SourceReloc: "reloc",
	SourceDataCell: "data-cell", SourceCodeImm: "code-imm",
	SourceJumpTable: "jump-table",
}

// String names the source.
func (k SourceKind) String() string {
	if int(k) < len(sourceNames) {
		return sourceNames[k]
	}
	return "source(?)"
}

// MarkIndex is the set of landing-pad marker addresses found at
// instruction boundaries of the text section, in ascending order.
type MarkIndex struct {
	addrs []uint64
}

// Marked reports whether addr carries a landing-pad marker. A nil index
// marks nothing.
func (x *MarkIndex) Marked(addr uint64) bool {
	if x == nil {
		return false
	}
	_, ok := slices.BinarySearch(x.addrs, addr)
	return ok
}

// Count returns the number of marker sites.
func (x *MarkIndex) Count() int {
	if x == nil {
		return 0
	}
	return len(x.addrs)
}

// Addrs returns the marker addresses in ascending order. The slice is
// shared; callers must not modify it.
func (x *MarkIndex) Addrs() []uint64 {
	if x == nil {
		return nil
	}
	return x.addrs
}

// Evidence aggregates what every source contributed for one binary: the
// marker index and the trust decision over it, the collected pointer
// sites with per-source attribution, and the skip/bound counters the
// experiments report. It is assembled inside core.Analyze and read-only
// afterwards.
type Evidence struct {
	// Marks indexes the landing-pad marker sites (nil when none).
	Marks *MarkIndex
	// Trusted reports whether marker evidence is engaged: the binary
	// claims CFI (bin.Binary.CFI), markers exist, every function entry
	// is marked, and no candidate pointer lands on a mid-instruction
	// marker. Untrusted evidence degrades every consumer to the exact
	// conservative path.
	Trusted bool
	// Corrupt reports markers that failed verification (a marker
	// mid-instruction reachable through a candidate pointer, or an
	// unmarked function entry in a CFI-claiming binary).
	Corrupt bool
	// Counts attributes collected evidence per source: kept pointer
	// sites for the three pointer sources, marker sites for
	// SourceLandingPad, resolved tables for SourceJumpTable.
	Counts map[SourceKind]int
	// Skipped counts candidate pointers the conservative analysis would
	// have refused (ErrImprecise) but landing-pad evidence proved to be
	// no indirect target: under CET enforcement both the original and
	// the rewritten binary fault identically on them, so leaving the
	// value unrewritten is sound.
	Skipped int
	// MarkBoundedTables counts jump tables whose inexact bounds were
	// tightened at the first unmarked candidate entry.
	MarkBoundedTables int

	// collection state, transient within FuncPointers.
	sites    []PtrSite
	slotSeen map[uint64]bool
}

// Untrusted returns evidence with no marker knowledge: every consumer
// takes the conservative path. It is what marker-less (and NoEvidence)
// analyses run with.
func Untrusted() *Evidence {
	return &Evidence{Counts: map[SourceKind]int{}}
}

// finishEvidence is the landing-pad source, run over what the text
// sweep collected (see SweepFuncs): it seeds ev with the marker index
// and runs the trust checks. Markers found in a binary that does not
// claim CFI are indexed (icfg-objdump lists them) but never trusted —
// completeness is the compiler's claim, not something a scan can
// establish. It runs before CFG construction: the trust bit is part of
// the analysis identity, so it must be decided before any unit is keyed.
// The decision reads the whole text, however the sweep was assembled.
func finishEvidence(b *bin.Binary, marks, imms []uint64, ev *Evidence) {
	if len(marks) > 0 {
		ev.Marks = &MarkIndex{addrs: marks}
	}
	ev.Counts[SourceLandingPad] = len(marks)
	if !b.CFI() || len(marks) == 0 {
		return
	}

	// Trust check 1: every function entry must be marked — an indirect
	// call to an unmarked entry means the markers are incomplete or
	// stripped.
	for _, sym := range b.FuncSymbols() {
		if sym.Size == 0 {
			continue
		}
		if !ev.Marks.Marked(sym.Addr) {
			ev.Corrupt = true
			return
		}
	}

	// Trust check 2: no candidate pointer value may decode as a marker
	// at a non-boundary address — a marker byte pattern embedded
	// mid-instruction would let the evidence layer "prove" reachability
	// of an address the program never executes as a landing pad. The
	// sweep decodes every instruction boundary exactly as this check
	// decodes v, so a boundary that decodes as a marker is in the index:
	// "decodes as a marker and is not indexed" is "a marker off every
	// boundary".
	text := b.Text()
	enc := arch.ForArch(b.Arch)
	checkValue := func(v uint64) {
		if !text.Contains(v) || ev.Marks.Marked(v) {
			return
		}
		if ins, err := enc.Decode(text.Data[v-text.Addr:], v); err == nil && ins.Kind == arch.Mark {
			ev.Corrupt = true
		}
	}
	for _, rl := range b.Relocs {
		if rl.Kind == bin.RelocRelative {
			checkValue(uint64(rl.Addend))
		}
	}
	if data := b.Section(bin.SecData); data != nil {
		for off := uint64(0); off+8 <= data.Size(); off += 8 {
			checkValue(binary.LittleEndian.Uint64(data.Data[off:]))
		}
	}
	for _, v := range imms {
		checkValue(v)
	}
	if !ev.Corrupt {
		ev.Trusted = true
	}
}

// provablyUnreachable reports whether v cannot be an indirect-transfer
// target: marker evidence is trusted and v carries no marker, so under
// CET semantics an indirect transfer to v faults in the original binary
// exactly as it would in the rewritten one. The conservative analysis
// must refuse such values; with landing pads they are safely skippable.
func (ev *Evidence) provablyUnreachable(v uint64) bool {
	if ev == nil || !ev.Trusted {
		return false
	}
	return !ev.Marks.Marked(v)
}
