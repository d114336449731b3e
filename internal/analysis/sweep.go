package analysis

import (
	"math/bits"
	"slices"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
)

// The text sweep: one linear decode of the text section feeds the
// jump-table boundary scan and the landing-pad scan. It is cut along the
// function table into per-function regions and the gaps between them,
// so a delta analysis can take an unchanged function's share of the
// sweep from a memo (ScanMemo) instead of decoding it again. The
// assembled result is exactly that of one uncut walk: a memoised scan is
// used only where the walk would have started that function afresh, and
// everything else is decoded live from where the walk stands.

// FuncScan is one function's share of the sweep: what the two scans
// collect over the instructions that start inside the function,
// decoded from its first byte with neutral carry-in and with nothing
// visible past its content-hashed window, and the state the walk leaves
// behind. It is immutable once built.
type FuncScan struct {
	addr, window uint64
	// vals holds the boundary-hint candidates (sorted, unique, not yet
	// filtered to mapped addresses), the marker addresses, the code
	// immediates, and then the page bases of exit.pending in register
	// order.
	vals                  []uint64
	nHints, nMarks, nImms uint32
	exit                  scanCarry
}

func (s *FuncScan) hints() []uint64 { return s.vals[:s.nHints] }
func (s *FuncScan) marks() []uint64 { return s.vals[s.nHints : s.nHints+s.nMarks] }
func (s *FuncScan) imms() []uint64  { return s.vals[s.nHints+s.nMarks : s.nHints+s.nMarks+s.nImms] }
func (s *FuncScan) pages() []uint64 { return s.vals[s.nHints+s.nMarks+s.nImms:] }

// ScanMemo holds FuncScans by function content hash
// (bin.FuncContentHashes). The hash covers the function's address, size,
// bytes and decode lookahead, which is everything its scan reads.
// Implementations must be safe for concurrent use.
type ScanMemo interface {
	Scan(id [32]byte) *FuncScan
	PutScan(id [32]byte, s *FuncScan)
}

// SweepInput describes one text sweep.
type SweepInput struct {
	// Funcs is the function table the sweep is cut along, ascending by
	// address: bin.FuncSymbols, or cfg.DiscoverFunctions for a stripped
	// binary. Zero-size entries only split gaps.
	Funcs []bin.Symbol
	// IDs are the content hashes of Funcs, index for index; read only
	// with a Memo.
	IDs [][32]byte
	// Memo, when non-nil, supplies memoised function scans and receives
	// the ones this sweep computes.
	Memo ScanMemo
	// Evidence runs the landing-pad scan and its trust checks.
	Evidence bool
}

// SweepFuncs runs the text sweep described by in. It returns the
// jump-table resolver with its boundary hints, the evidence layer
// (Untrusted unless in.Evidence) and the gaps between in.Funcs that are
// inter-function padding (PaddingGap), in address order.
func SweepFuncs(b *bin.Binary, in SweepInput) (*JumpTables, *Evidence, [][2]uint64) {
	jt := &JumpTables{bin: b}
	ev := Untrusted()
	text := b.Text()
	if text == nil {
		return jt, ev, nil
	}
	enc := arch.ForArch(b.Arch)
	sw := sweeper{text: text, arch: b.Arch, enc: enc, maxLen: uint64(enc.MaxLen()), evidence: in.Evidence}
	sw.carry.next = text.Addr
	end := text.End()
	pos := text.Addr // end of the table's coverage so far: where a gap starts
	for k, f := range in.Funcs {
		if f.Addr > pos {
			sw.gap(pos, min(f.Addr, end))
		}
		if f.Size > 0 {
			sw.function(&in, k)
		}
		pos = max(pos, f.Addr+f.Size)
	}
	sw.gap(pos, end)

	hints := sw.all.hints[:0]
	for _, h := range sw.all.hints {
		if b.SectionAt(h) != nil {
			hints = append(hints, h)
		}
	}
	slices.Sort(hints)
	jt.boundaries = slices.Compact(hints)
	if in.Evidence {
		finishEvidence(b, sw.all.marks, sw.all.imms, ev)
	}
	return jt, ev, sw.padding
}

// PaddingGap reports whether [start, end) of the text section is
// inter-function padding: decoded from start, with nothing past end
// visible, every instruction is a nop. The decode stops at the first
// non-nop, so checking a gap of real code costs one instruction.
func PaddingGap(b *bin.Binary, start, end uint64) bool {
	return paddingGap(b.Arch, b.Text(), start, end)
}

func paddingGap(a arch.Arch, text *bin.Section, start, end uint64) bool {
	nops := true
	arch.Walk(a, text.Data[start-text.Addr:end-text.Addr], start, func(ins arch.Instr) bool {
		nops = ins.Kind == arch.Nop
		return nops
	})
	return nops
}

// scanCarry is the state the walk hands from one instruction to the
// next: where decoding resumes, whether it stopped, the registers whose
// page base awaits its add (boundary scan; the bases themselves are in
// sweeper.page), and whether the previous instruction was a movz a
// following movk may pair with, with its register and immediate
// (landing-pad scan).
type scanCarry struct {
	next    uint64
	stopped bool
	movz    bool
	movzRd  arch.Reg
	pending arch.RegSet
	movzImm uint64
}

// neutral reports whether the carry cannot change how the next
// instruction is scanned: no page base awaits its add, and no movz
// waits for its movk. A walk from a neutral carry collects what a walk
// from a fresh one does.
func (c *scanCarry) neutral() bool { return c.pending == 0 && !c.movz }

// scanLists are the scans' outputs: boundary-hint candidates, marker
// addresses and code immediates.
type scanLists struct{ hints, marks, imms []uint64 }

// sweeper assembles one sweep. all is binary-wide: live walks append to
// it directly, memoised scans are copied into it. page holds the page
// base of each register in carry.pending; a function is scanned for the
// memo only from a neutral carry, so its walk may share the array.
type sweeper struct {
	text     *bin.Section
	arch     arch.Arch
	enc      arch.Encoding
	maxLen   uint64
	evidence bool
	carry    scanCarry
	page     [arch.NumRegs]uint64
	all      scanLists
	scratch  scanLists // a fresh FuncScan's lists before packing
	padding  [][2]uint64
}

// function sweeps one function's region [f.Addr, f.Addr+f.Size). With a
// memo, a walk that reaches the function's first byte with a neutral
// carry takes the memoised scan, computing and depositing it on a miss.
// Anywhere else (an instruction of the previous region straddles into
// this one, symbols overlap, the carry is live, decoding stopped) the
// region is walked live from the cursor.
func (sw *sweeper) function(in *SweepInput, k int) {
	f, c := in.Funcs[k], &sw.carry
	tEnd := sw.text.End()
	if f.Addr < sw.text.Addr || f.Addr >= tEnd {
		return
	}
	end := min(f.Addr+f.Size, tEnd)
	if c.stopped || c.next >= end {
		return
	}
	if in.Memo == nil || c.next != f.Addr || !c.neutral() {
		sw.walk(c, &sw.all, end, tEnd, sw.evidence, nil)
		return
	}
	window := min(f.Addr+f.Size+sw.maxLen-1, tEnd) - f.Addr
	s := in.Memo.Scan(in.IDs[k])
	if s == nil || s.addr != f.Addr || s.window != window {
		s = sw.scan(f.Addr, end, f.Addr+window)
		in.Memo.PutScan(in.IDs[k], s)
	}
	sw.all.hints = append(sw.all.hints, s.hints()...)
	if sw.evidence {
		sw.all.marks = append(sw.all.marks, s.marks()...)
		sw.all.imms = append(sw.all.imms, s.imms()...)
	}
	*c = s.exit
	pages := s.pages()
	for r := arch.Reg(0); r < arch.NumRegs; r++ {
		if c.pending.Has(r) {
			sw.page[r], pages = pages[0], pages[1:]
		}
	}
}

// scan builds a FuncScan for the function at start: both scans, from a
// fresh carry, over the instructions starting before end, reading no
// byte at or past limit (the content-hashed window).
func (sw *sweeper) scan(start, end, limit uint64) *FuncScan {
	c := scanCarry{next: start}
	l := &sw.scratch
	l.hints, l.marks, l.imms = l.hints[:0], l.marks[:0], l.imms[:0]
	sw.walk(&c, l, end, limit, true, nil)
	slices.Sort(l.hints)
	l.hints = slices.Compact(l.hints)
	vals := make([]uint64, 0, len(l.hints)+len(l.marks)+len(l.imms)+bits.OnesCount32(uint32(c.pending)))
	vals = append(append(append(vals, l.hints...), l.marks...), l.imms...)
	for r := arch.Reg(0); r < arch.NumRegs; r++ {
		if c.pending.Has(r) {
			vals = append(vals, sw.page[r])
		}
	}
	return &FuncScan{addr: start, window: limit - start, vals: vals, exit: c,
		nHints: uint32(len(l.hints)), nMarks: uint32(len(l.marks)), nImms: uint32(len(l.imms))}
}

// gap sweeps [start, end), a stretch no function of the table covers,
// always live, and decides whether it is padding: from the walk itself
// when the walk enters the gap at its start, else by decoding the gap on
// its own (PaddingGap).
func (sw *sweeper) gap(start, end uint64) {
	if start >= end {
		return
	}
	c := &sw.carry
	if c.next != start || c.stopped {
		if paddingGap(sw.arch, sw.text, start, end) {
			sw.padding = append(sw.padding, [2]uint64{start, end})
		}
		if !c.stopped && c.next < end {
			sw.walk(c, &sw.all, end, sw.text.End(), sw.evidence, nil)
		}
		return
	}
	gc := gapCheck{end: end, nops: true}
	sw.walk(c, &sw.all, end, sw.text.End(), sw.evidence, &gc)
	if !gc.decided && c.stopped {
		gc.nops = paddingGap(sw.arch, sw.text, c.next, end)
	}
	if gc.nops {
		sw.padding = append(sw.padding, [2]uint64{start, end})
	}
}

// gapCheck follows a gap's padding verdict along the sweep's walk. The
// walk decodes with the rest of the text visible, the verdict with
// nothing past the gap's end, so they agree on every instruction that
// ends inside the gap; from the first one that does not, the verdict
// decodes the remainder on its own.
type gapCheck struct {
	end     uint64
	decided bool
	nops    bool
}

// walk decodes, from c.next, every instruction that starts before end,
// reading no byte at or past limit, and folds each into the boundary
// scan and (when evidence is set) the landing-pad scan, appending to
// out and updating c. A decode error stops the walk for good.
//
// The boundary scan collects every address the code forms PC-relatively
// or materialises as a constant: jump tables never extend past such an
// address ("we identify non-jump table memory accesses and ensure jump
// tables will not run into other jump tables or known non-jump table
// data"). The landing-pad scan collects marker addresses and the
// immediates (movimm, movz/movk pairs) the trust check examines.
func (sw *sweeper) walk(c *scanCarry, out *scanLists, end, limit uint64, evidence bool, gc *gapCheck) {
	base := sw.text.Addr
	data := sw.text.Data[:limit-base]
	for c.next < end {
		ins, err := sw.enc.Decode(data[c.next-base:], c.next)
		if err != nil {
			c.stopped = true
			return
		}
		insEnd := c.next + uint64(ins.EncLen)
		if gc != nil && !gc.decided {
			if insEnd > gc.end {
				gc.nops, gc.decided = paddingGap(sw.arch, sw.text, c.next, gc.end), true
			} else if ins.Kind != arch.Nop {
				gc.nops, gc.decided = false, true
			}
		}
		switch ins.Kind {
		case arch.Lea:
			t, _ := ins.Target()
			out.hints = append(out.hints, t)
			c.pending = c.pending.Remove(ins.Rd)
		case arch.LeaHi:
			if ins.Rd.Valid() {
				sw.page[ins.Rd], _ = ins.Target()
				c.pending = c.pending.Add(ins.Rd)
			}
		case arch.ALUImm, arch.AddImm16:
			isAdd := ins.Kind == arch.AddImm16 || ins.Op == arch.Add
			if isAdd && ins.Rd == ins.Rs1 && c.pending.Has(ins.Rd) && ins.Imm >= 0 && ins.Imm < 4096 {
				out.hints = append(out.hints, sw.page[ins.Rd]+uint64(ins.Imm))
			}
			c.pending = c.pending.Remove(ins.Rd)
		case arch.MovImm:
			out.hints = append(out.hints, uint64(ins.Imm))
			c.pending = c.pending.Remove(ins.Rd)
		case arch.LoadPC:
			out.hints = append(out.hints, ins.Addr+uint64(ins.Imm))
			c.pending = c.pending.Remove(ins.Rd)
		default:
			c.pending = c.pending.Minus(ins.Defs(sw.arch))
		}
		if evidence {
			switch ins.Kind {
			case arch.Mark:
				out.marks = append(out.marks, ins.Addr)
			case arch.MovImm:
				out.imms = append(out.imms, uint64(ins.Imm))
			case arch.MovK16:
				if c.movz && ins.Shift == 1 && ins.Rd == c.movzRd {
					out.imms = append(out.imms, c.movzImm|uint64(ins.Imm)<<16)
				}
			}
		}
		c.movz = ins.Kind == arch.MovImm16 && ins.Shift == 0
		if c.movz {
			c.movzRd, c.movzImm = ins.Rd, uint64(ins.Imm)
		}
		c.next = insEnd
	}
}
