package analysis

import (
	"encoding/binary"
	"errors"
	"fmt"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/cfg"
)

// ErrImprecise reports that function pointer identification cannot be
// precise for this binary. Per the safety requirement of Section 5.2,
// modifying an over- or under-approximated pointer set changes program
// behaviour, so func-ptr mode must refuse rather than guess — the
// situation the paper hits with Go's language-specific function tables.
// Trusted landing-pad evidence narrows the refusal: candidates that
// provably cannot be indirect targets are skipped instead.
var ErrImprecise = errors.New("analysis: imprecise function pointers")

// PtrSiteKind classifies where a function pointer is defined. It is the
// evidence-source vocabulary; the historical names below remain the
// values the rewriter switches on.
type PtrSiteKind = SourceKind

// Pointer definition sites (aliases of the evidence sources).
const (
	// PtrReloc is a runtime relocation whose value is a code address.
	PtrReloc = SourceReloc
	// PtrDataCell is an 8-byte initialised data cell holding a code
	// address in position dependent binaries.
	PtrDataCell = SourceDataCell
	// PtrCodeImm is a code-materialised pointer (movimm / movz+movk).
	PtrCodeImm = SourceCodeImm
)

// PtrSite is one function pointer definition.
type PtrSite struct {
	Kind PtrSiteKind
	// Slot is the data address being initialised (PtrReloc/PtrDataCell).
	Slot uint64
	// Instrs are the materialising instruction addresses (PtrCodeImm).
	Instrs []uint64
	// Value is the pointer value: a function entry, possibly plus a
	// small delta (the Listing 1 "goexit+1" pattern). The rewriter maps
	// it through the instruction-level relocation map, which is the
	// forward-slicing-tracked rewrite of Section 5.2.
	Value uint64
}

// FuncPointers identifies every function pointer definition in the
// binary by running the ranked pointer sources (reloc, data-cell,
// code-imm) under this evidence. Each source that completes records its
// kept sites in ev.Counts. Without trusted landing pads (Untrusted) it
// is the conservative analysis, which fails with ErrImprecise when a
// candidate cannot be validated: a code-address-like value that does not
// land on an instruction boundary of its function means the binary
// manufactures code pointers the analysis cannot model (Go function
// tables). With trusted landing pads, candidates the conservative
// analysis would refuse are skipped when no marker covers them —
// provably not indirect targets — converting whole-binary refusal into
// sound acceptance.
func (ev *Evidence) FuncPointers(b *bin.Binary, g *cfg.Graph) ([]PtrSite, error) {
	if b.Text() == nil {
		return nil, fmt.Errorf("analysis: no text section")
	}
	ev.sites = nil
	ev.slotSeen = map[uint64]bool{}
	if err := ev.relocPtrs(b, g); err != nil {
		return nil, err
	}
	if err := ev.dataCellPtrs(b, g); err != nil {
		return nil, err
	}
	if err := ev.codeImmPtrs(b, g); err != nil {
		return nil, err
	}
	sites := ev.sites
	ev.sites, ev.slotSeen = nil, nil
	return sites, nil
}

// validate classifies a code-address-like value: keep (a rewritable
// pointer into relocated code), skip (needs no rewriting: targets stay
// in place — pointers into unanalysable functions, in-code table data,
// inter-function padding), or fail (a pointer into relocated code that
// is not an instruction boundary: rewriting it cannot be precise, so
// func-ptr mode must refuse). Trusted landing-pad evidence intercepts
// the failure paths: an unmarked target is provably unreachable by any
// indirect transfer, so the value is skipped instead.
func (ev *Evidence) validate(g *cfg.Graph, v uint64, what string) (keep bool, err error) {
	f, ok := g.FuncContaining(v)
	if !ok {
		return false, nil // padding or data-in-text; stays in place
	}
	if !f.Instrumentable() {
		return false, nil // function is not relocated; value stays valid
	}
	if v == f.Entry {
		return true, nil
	}
	for _, dr := range f.DataRanges {
		if v >= dr[0] && v < dr[1] {
			return false, nil // pointer to embedded table data
		}
	}
	blk, ok := f.BlockContaining(v)
	if !ok {
		if ev.provablyUnreachable(v) {
			ev.Skipped++
			return false, nil
		}
		return false, fmt.Errorf("%w: %s value %#x points into unexplored bytes of %s", ErrImprecise, what, v, f.Name)
	}
	for _, ins := range blk.Instrs {
		if ins.Addr == v {
			return true, nil
		}
	}
	if ev.provablyUnreachable(v) {
		ev.Skipped++
		return false, nil
	}
	return false, fmt.Errorf("%w: %s value %#x is not an instruction boundary in %s", ErrImprecise, what, v, f.Name)
}

// relocPtrs finds pointers defined by runtime relocations (PIE).
func (ev *Evidence) relocPtrs(b *bin.Binary, g *cfg.Graph) error {
	first := len(ev.sites)
	text := b.Text()
	for _, rl := range b.Relocs {
		if rl.Kind != bin.RelocRelative {
			continue
		}
		v := uint64(rl.Addend)
		if !text.Contains(v) {
			continue
		}
		keep, err := ev.validate(g, v, "relocation")
		if err != nil {
			return err
		}
		ev.slotSeen[rl.Off] = true
		if !keep {
			continue
		}
		ev.sites = append(ev.sites, PtrSite{Kind: PtrReloc, Slot: rl.Off, Value: v})
	}
	ev.Counts[SourceReloc] = len(ev.sites) - first
	return nil
}

// dataCellPtrs finds pointers hiding in initialised data cells
// (position dependent binaries have no relocations).
func (ev *Evidence) dataCellPtrs(b *bin.Binary, g *cfg.Graph) error {
	first := len(ev.sites)
	text := b.Text()
	data := b.Section(bin.SecData)
	if data == nil {
		ev.Counts[SourceDataCell] = 0
		return nil
	}
	for off := uint64(0); off+8 <= data.Size(); off += 8 {
		slot := data.Addr + off
		if ev.slotSeen[slot] {
			continue
		}
		v := binary.LittleEndian.Uint64(data.Data[off:])
		if !text.Contains(v) {
			continue
		}
		keep, err := ev.validate(g, v, "data cell")
		if err != nil {
			return err
		}
		if !keep {
			continue
		}
		ev.sites = append(ev.sites, PtrSite{Kind: PtrDataCell, Slot: slot, Value: v})
	}
	ev.Counts[SourceDataCell] = len(ev.sites) - first
	return nil
}

// codeImmPtrs finds code-materialised pointers: movimm (X64) and
// movz/movk pairs (fixed-width ISAs).
func (ev *Evidence) codeImmPtrs(b *bin.Binary, g *cfg.Graph) error {
	first := len(ev.sites)
	text := b.Text()
	for _, f := range g.Funcs {
		if !f.Instrumentable() {
			continue
		}
		for _, blk := range f.Blocks {
			for i, ins := range blk.Instrs {
				switch ins.Kind {
				case arch.MovImm:
					v := uint64(ins.Imm)
					if !text.Contains(v) {
						continue
					}
					keep, err := ev.validate(g, v, "immediate")
					if err != nil {
						return err
					}
					if !keep {
						continue
					}
					ev.sites = append(ev.sites, PtrSite{Kind: PtrCodeImm, Instrs: []uint64{ins.Addr}, Value: v})
				case arch.MovImm16:
					// movz/movk pair materialisation.
					if ins.Shift != 0 || i+1 >= len(blk.Instrs) {
						continue
					}
					next := blk.Instrs[i+1]
					if next.Kind != arch.MovK16 || next.Rd != ins.Rd || next.Shift != 1 {
						continue
					}
					v := uint64(ins.Imm) | uint64(next.Imm)<<16
					if !text.Contains(v) {
						continue
					}
					keep, err := ev.validate(g, v, "movz/movk pair")
					if err != nil {
						return err
					}
					if !keep {
						continue
					}
					ev.sites = append(ev.sites, PtrSite{Kind: PtrCodeImm, Instrs: []uint64{ins.Addr, next.Addr}, Value: v})
				}
			}
		}
	}
	ev.Counts[SourceCodeImm] = len(ev.sites) - first
	return nil
}
