// Package unwind models the stack unwinding substrate the paper's runtime
// return-address translation plugs into: DWARF-style .eh_frame unwind
// records (FDEs) with landing pads for exception dispatch, a frame stepper
// equivalent to libunwind's _UL*_step, and a Go-style pclntab used by the
// Go runtime's traceback (runtime.findfunc / runtime.pcvalue).
//
// The crucial property reproduced from the paper: all tables are keyed by
// ORIGINAL code addresses and are never rewritten. A rewritten binary
// supplies a Translator that maps relocated return addresses back to
// original call sites before any lookup — one translation per frame step,
// which is cheap next to the unwind-recipe lookup itself (Section 6).
package unwind

import (
	"encoding/binary"
	"fmt"
	"sort"

	"icfgpatch/internal/arch"
)

// LandingPad describes one exception handler: throws whose (translated)
// PC falls in [TryStart, TryEnd) are dispatched to Pad, an original-code
// address.
type LandingPad struct {
	TryStart uint64
	TryEnd   uint64
	Pad      uint64
}

// FDE is one function's frame description entry. The synthetic compilers
// emit a single recipe per function (calls and throws only occur between
// prologue and epilogue), so no CFI row program is needed.
type FDE struct {
	// Start and End delimit the function's original code range.
	Start uint64
	End   uint64
	// FrameSize is the number of bytes the prologue subtracts from SP.
	// On X64 this excludes the return address slot pushed by call.
	FrameSize uint64
	// RAInLR marks leaf functions on the fixed-width ISAs whose return
	// address never leaves the link register.
	RAInLR bool
	// Pads lists the function's exception landing pads.
	Pads []LandingPad
}

// Contains reports whether pc lies in the FDE's range.
func (f *FDE) Contains(pc uint64) bool { return pc >= f.Start && pc < f.End }

// PadFor returns the landing pad covering pc, if any. When try regions
// nest, the innermost (latest-starting) region wins, matching C++
// personality semantics.
func (f *FDE) PadFor(pc uint64) (LandingPad, bool) {
	best := LandingPad{}
	found := false
	for _, p := range f.Pads {
		if pc >= p.TryStart && pc < p.TryEnd {
			better := p.TryStart > best.TryStart ||
				(p.TryStart == best.TryStart && p.TryEnd < best.TryEnd)
			if !found || better {
				best = p
				found = true
			}
		}
	}
	return best, found
}

// Table is a searchable set of FDEs, the in-memory form of .eh_frame.
type Table struct {
	fdes []FDE // sorted by Start
}

// NewTable builds a table, sorting the entries by start address.
func NewTable(fdes []FDE) *Table {
	s := append([]FDE(nil), fdes...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	return &Table{fdes: s}
}

// Find returns the FDE covering pc. This is the lookup the language
// runtime performs for every unwound frame; a PC pointing into relocated
// code finds nothing, which is exactly how rewritten binaries break
// exception handling without RA translation.
func (t *Table) Find(pc uint64) (*FDE, bool) {
	i := sort.Search(len(t.fdes), func(i int) bool { return t.fdes[i].Start > pc })
	if i > 0 && t.fdes[i-1].Contains(pc) {
		return &t.fdes[i-1], true
	}
	return nil, false
}

// Len returns the number of FDEs.
func (t *Table) Len() int { return len(t.fdes) }

// FDEs returns the sorted entries (shared storage; do not mutate).
func (t *Table) FDEs() []FDE { return t.fdes }

// Translator maps a return address from rewritten-code coordinates to
// original-code coordinates. The identity translation serves unmodified
// binaries; rewritten binaries install the .ra_map lookup (package rtlib).
// Per Section 6 of the paper, addresses with no mapping pass through
// unchanged — that is how unwinding traverses uninstrumented libraries.
type Translator func(pc uint64) uint64

// Memory is the slice of machine state the stepper reads.
type Memory interface {
	ReadU64(addr uint64) (uint64, error)
}

// Frame is one logical stack frame during unwinding.
type Frame struct {
	PC uint64 // return address (translated to original coordinates)
	SP uint64 // stack pointer value in this frame
	// RawPC is the untranslated return address as found in memory or LR,
	// i.e. a relocated-code address when the caller executes in .instr.
	RawPC uint64
}

// Step unwinds one frame: given the current (already translated) pc, the
// stack pointer, the link register value, and the FDE table, it computes
// the caller's frame. It mirrors libunwind's _ULx86_64_step /
// _ULppc64_step / _ULaarch64_step: the translator is applied to the
// recovered return address before it is returned, which is precisely the
// function-wrapping hook of Section 6.1.
func Step(a arch.Arch, t *Table, mem Memory, translate Translator, pc, sp, lr uint64) (Frame, error) {
	fde, ok := t.Find(pc)
	if !ok {
		return Frame{}, fmt.Errorf("unwind: no FDE covers pc %#x", pc)
	}
	var raw uint64
	var nsp uint64
	switch {
	case a == arch.X64:
		// RA was pushed by call below the frame: [sp + FrameSize].
		v, err := mem.ReadU64(sp + fde.FrameSize)
		if err != nil {
			return Frame{}, fmt.Errorf("unwind: reading return address: %w", err)
		}
		raw = v
		nsp = sp + fde.FrameSize + 8
	case fde.RAInLR:
		raw = lr
		nsp = sp + fde.FrameSize
	default:
		// Non-leaf fixed-width frame: prologue stored LR at the top of
		// the frame, [sp + FrameSize - 8].
		v, err := mem.ReadU64(sp + fde.FrameSize - 8)
		if err != nil {
			return Frame{}, fmt.Errorf("unwind: reading saved LR: %w", err)
		}
		raw = v
		nsp = sp + fde.FrameSize
	}
	return Frame{PC: translate(raw), SP: nsp, RawPC: raw}, nil
}

// Walk unwinds at most maxFrames frames starting from (pc, sp, lr) and
// returns them innermost first, stopping at the first PC not covered by
// the table (the conventional outermost-frame sentinel). The starting pc
// is translated before the first lookup, matching the Go runtime path
// where runtime.findfunc's input PC is rewritten at function entry.
func Walk(a arch.Arch, t *Table, mem Memory, translate Translator, pc, sp, lr uint64, maxFrames int) ([]Frame, error) {
	var frames []Frame
	cur := Frame{PC: translate(pc), SP: sp, RawPC: pc}
	for len(frames) < maxFrames {
		frames = append(frames, cur)
		if _, ok := t.Find(cur.PC); !ok {
			if len(frames) == 1 {
				return frames, fmt.Errorf("unwind: initial pc %#x not covered", cur.PC)
			}
			return frames[:len(frames)-1], nil
		}
		next, err := Step(a, t, mem, translate, cur.PC, cur.SP, lr)
		if err != nil {
			return frames, err
		}
		lr = 0 // LR is only meaningful for the innermost frame
		if next.RawPC == 0 {
			return frames, nil // reached the sentinel return address
		}
		cur = next
	}
	return frames, fmt.Errorf("unwind: more than %d frames (runaway unwind?)", maxFrames)
}

// encoded .eh_frame layout: u64 count, then per FDE: start, end,
// framesize, flags(u8), padcount(u32), pads (3×u64 each).

// Encode serialises the table to .eh_frame section payload bytes.
func (t *Table) Encode() []byte {
	var out []byte
	var tmp [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		out = append(out, tmp[:]...)
	}
	put(uint64(len(t.fdes)))
	for _, f := range t.fdes {
		put(f.Start)
		put(f.End)
		put(f.FrameSize)
		if f.RAInLR {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(f.Pads)))
		out = append(out, n[:]...)
		for _, p := range f.Pads {
			put(p.TryStart)
			put(p.TryEnd)
			put(p.Pad)
		}
	}
	return out
}

// Decode parses .eh_frame section payload bytes.
func Decode(data []byte) (*Table, error) {
	off := 0
	need := func(n int) error {
		if off+n > len(data) {
			return fmt.Errorf("unwind: truncated .eh_frame at offset %d", off)
		}
		return nil
	}
	get := func() uint64 {
		v := binary.LittleEndian.Uint64(data[off:])
		off += 8
		return v
	}
	if err := need(8); err != nil {
		return nil, err
	}
	count := get()
	fdes := make([]FDE, 0, min(int(count), 1<<20))
	for k := uint64(0); k < count; k++ {
		if err := need(8*3 + 1 + 4); err != nil {
			return nil, err
		}
		var f FDE
		f.Start = get()
		f.End = get()
		f.FrameSize = get()
		f.RAInLR = data[off] != 0
		off++
		npads := binary.LittleEndian.Uint32(data[off:])
		off += 4
		if err := need(int(npads) * 24); err != nil {
			return nil, err
		}
		for p := uint32(0); p < npads; p++ {
			f.Pads = append(f.Pads, LandingPad{TryStart: get(), TryEnd: get(), Pad: get()})
		}
		fdes = append(fdes, f)
	}
	return NewTable(fdes), nil
}
