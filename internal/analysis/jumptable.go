// Package analysis implements the two indirect control flow analyses of
// Section 5: jump-table analysis (intra-procedural) and function-pointer
// analysis (inter-procedural). Both are deliberately honest about their
// limits: jump-table analysis degrades along the paper's failure
// taxonomy (graceful failure, Assumption-2 bound extension, tolerated
// over-approximation) and function-pointer analysis refuses binaries it
// cannot handle precisely rather than mis-rewriting them.
package analysis

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/cfg"
	"icfgpatch/internal/dataflow"
)

// MaxTableEntries caps Assumption-2 bound extension when no hard bound
// (boundary hint or section end) is available. Hard bounds are never
// capped: trimming them would silently drop real table entries.
const MaxTableEntries = 512

// JumpTables is the jump-table resolver plugged into cfg.BuildFunc. It
// keeps program-wide boundary hints (known data-access addresses and
// table bases) used to bound tables whose size check could not be
// recovered, per Assumption 2 of the paper.
type JumpTables struct {
	bin *bin.Binary
	// Strict disables Assumption-2 bound extension: tables without a
	// visible bounds check fail (the SRBI-era behaviour the paper
	// improves on).
	Strict bool
	// boundaries are sorted addresses known to start non-table data or
	// another table: PC-relative access targets and materialised
	// constants found anywhere in the code.
	boundaries []uint64
	// rec, when non-nil, accumulates the resolver's read set (see
	// StartRecording). Resolution is serial per binary, so a single
	// slot suffices.
	rec *recording
	// marks, when non-nil, is trusted landing-pad evidence: inexact
	// (Assumption-2) bounds are additionally trimmed at the first
	// unmarked candidate target, since in a trusted-CFI binary every
	// genuine case target carries a marker. Exact bounds are never
	// tightened — they are proven, and tightening could only drop real
	// entries.
	marks *MarkIndex
	// tablesResolved and markBounded attribute the source's work (see
	// Attribute): tables successfully resolved, and tables whose inexact
	// bound was trimmed by marker evidence.
	tablesResolved int
	markBounded    int
}

// Attribute deposits the jump-table source's attribution into ev: the
// source does its real work during CFG construction (ResolveJump), and
// this records what it accumulated there.
func (jt *JumpTables) Attribute(ev *Evidence) {
	ev.Counts[SourceJumpTable] = jt.tablesResolved
	ev.MarkBoundedTables = jt.markBounded
}

// UseMarks engages trusted landing-pad evidence for bound validation.
// Callers must fold the trust decision into any cache identity covering
// resolved tables (core does, via the unit environment).
func (jt *JumpTables) UseMarks(m *MarkIndex) { jt.marks = m }

// nextBoundary returns the first boundary strictly greater than addr,
// or the end of addr's section. hard reports whether the limit is a
// proven upper bound on the table (a boundary hint or the section end)
// rather than the arbitrary fallback used when addr is outside every
// section. Queries are logged while a recording is active: the answer
// depends on code anywhere in the binary (any function can materialise
// a data address), so reuse of a cached per-function analysis is only
// sound if the new binary answers every recorded query identically.
func (jt *JumpTables) nextBoundary(addr uint64) (limit uint64, hard bool) {
	limit, hard = jt.Boundary(addr)
	if jt.rec != nil {
		jt.rec.bounds[addr] = BoundQuery{Addr: addr, Limit: limit, Hard: hard}
	}
	return limit, hard
}

// Boundary answers a boundary-hint query without recording it: the
// validation-side entry point for replaying a Recording against a new
// binary's resolver.
func (jt *JumpTables) Boundary(addr uint64) (limit uint64, hard bool) {
	limit = uint64(1) << 62
	hard = false
	if s := jt.bin.SectionAt(addr); s != nil {
		limit, hard = s.End(), true
	}
	i := sort.Search(len(jt.boundaries), func(i int) bool { return jt.boundaries[i] > addr })
	if i < len(jt.boundaries) && jt.boundaries[i] < limit {
		return jt.boundaries[i], true
	}
	return limit, hard
}

// ReadSpan is one contiguous byte range the resolver read successfully,
// identified by content: reuse requires the same bytes at the same
// address in the new binary.
type ReadSpan struct {
	Addr uint64
	Len  uint64
	Sum  [32]byte // sha256 of the bytes read
}

// ReadFail is a table read that failed (unmapped address or section
// overrun). The failure shaped the analysis — an inexact table was
// trimmed there — so reuse requires the read to fail in the new binary
// too.
type ReadFail struct {
	Addr uint64
	Len  uint64
}

// BoundQuery is one boundary-hint lookup and its answer.
type BoundQuery struct {
	Addr  uint64
	Limit uint64
	Hard  bool
}

// Recording is the resolver's read set for one function's analysis:
// everything ResolveJump consulted outside the function's own bytes.
// It is the evidence the delta engine replays to decide whether a
// cached analysis unit is still valid against a new binary version.
type Recording struct {
	Reads  []ReadSpan
	Fails  []ReadFail
	Bounds []BoundQuery
}

// ValidFor replays the recording against a new binary and its resolver:
// every successful read must observe identical bytes, every failed read
// must still fail, and every boundary query must produce the same
// answer. This is deliberately conservative — any mismatch forces a
// recompute, never a wrong reuse.
func (r *Recording) ValidFor(b *bin.Binary, jt *JumpTables) bool {
	if r == nil {
		return true
	}
	for _, s := range r.Reads {
		data, err := b.ReadAt(s.Addr, s.Len)
		if err != nil || hashBytes(data) != s.Sum {
			return false
		}
	}
	for _, f := range r.Fails {
		if _, err := b.ReadAt(f.Addr, f.Len); err == nil {
			return false
		}
	}
	for _, q := range r.Bounds {
		limit, hard := jt.Boundary(q.Addr)
		if limit != q.Limit || hard != q.Hard {
			return false
		}
	}
	return true
}

// recording accumulates raw events; StartRecording installs one and
// StopRecording compacts it into a Recording.
type recording struct {
	spans  [][2]uint64 // successful reads as [start,end)
	fails  []ReadFail
	bounds map[uint64]BoundQuery
}

// StartRecording begins capturing the resolver's read set. Recordings
// do not nest; the resolver is not safe for concurrent resolution while
// one is active (CFG construction is serial per binary).
func (jt *JumpTables) StartRecording() {
	jt.rec = &recording{bounds: map[uint64]BoundQuery{}}
}

// StopRecording ends capture and returns the compacted read set:
// successful reads merged into maximal per-section spans (a wide table
// is one span, not hundreds of entry-sized records) and content-hashed,
// failures deduplicated, boundary queries sorted.
func (jt *JumpTables) StopRecording() *Recording {
	rec := jt.rec
	jt.rec = nil
	out := &Recording{}
	if rec == nil {
		return out
	}
	sort.Slice(rec.spans, func(i, j int) bool { return rec.spans[i][0] < rec.spans[j][0] })
	var merged [][2]uint64
	for _, sp := range rec.spans {
		n := len(merged)
		if n > 0 && sp[0] <= merged[n-1][1] && sameSection(jt.bin, merged[n-1][0], sp[1]) {
			if sp[1] > merged[n-1][1] {
				merged[n-1][1] = sp[1]
			}
			continue
		}
		merged = append(merged, sp)
	}
	for _, sp := range merged {
		data, err := jt.bin.ReadAt(sp[0], sp[1]-sp[0])
		if err != nil {
			// Individually readable spans only merge within one section,
			// so this cannot happen; record an unmatchable span rather
			// than silently widening reuse.
			out.Fails = append(out.Fails, ReadFail{Addr: sp[0], Len: sp[1] - sp[0]})
			continue
		}
		out.Reads = append(out.Reads, ReadSpan{Addr: sp[0], Len: sp[1] - sp[0], Sum: hashBytes(data)})
	}
	seen := map[ReadFail]bool{}
	for _, f := range rec.fails {
		if !seen[f] {
			seen[f] = true
			out.Fails = append(out.Fails, f)
		}
	}
	sort.Slice(out.Fails, func(i, j int) bool {
		return out.Fails[i].Addr < out.Fails[j].Addr ||
			(out.Fails[i].Addr == out.Fails[j].Addr && out.Fails[i].Len < out.Fails[j].Len)
	})
	for _, q := range rec.bounds {
		out.Bounds = append(out.Bounds, q)
	}
	sort.Slice(out.Bounds, func(i, j int) bool { return out.Bounds[i].Addr < out.Bounds[j].Addr })
	return out
}

// readAt performs a table read through the active recording.
func (jt *JumpTables) readAt(b *bin.Binary, addr, n uint64) ([]byte, error) {
	data, err := b.ReadAt(addr, n)
	if jt.rec != nil {
		if err != nil {
			jt.rec.fails = append(jt.rec.fails, ReadFail{Addr: addr, Len: n})
		} else {
			jt.rec.spans = append(jt.rec.spans, [2]uint64{addr, addr + n})
		}
	}
	return data, err
}

// sameSection reports whether [start,end) lies inside one section.
func sameSection(b *bin.Binary, start, end uint64) bool {
	s := b.SectionAt(start)
	return s != nil && end <= s.End()
}

// hashBytes is the content address of a read span.
func hashBytes(data []byte) [32]byte { return sha256.Sum256(data) }

// ResolveJump implements cfg.Resolver: backward slicing from the
// indirect jump, symbolic target expression matching, bound inference,
// and entry decoding with validation.
func (jt *JumpTables) ResolveJump(b *bin.Binary, f *cfg.Func, jumpAddr uint64) (*cfg.ResolvedTable, error) {
	blk, ok := f.BlockContaining(jumpAddr)
	if !ok {
		return nil, fmt.Errorf("analysis: jump at %#x not in a block", jumpAddr)
	}
	jump := blk.Last()
	if jump.Addr != jumpAddr || jump.Kind != arch.JumpInd {
		return nil, fmt.Errorf("analysis: no indirect jump at %#x", jumpAddr)
	}
	slicer := dataflow.NewSlicer(b.Arch, f, b.TOCValue)
	expr := slicer.SliceValue(jumpAddr, jump.Rs1, 96)

	tbl, err := matchTargetExpr(expr, f)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s at %#x: %w", f.Name, jumpAddr, err)
	}
	tbl.JumpAddr = jumpAddr

	// Bound inference: exact when the bounds check is visible, else
	// Assumption-2 extension to the next known boundary.
	var load arch.Instr
	if lb, ok := f.BlockContaining(tbl.LoadAddr); ok {
		for _, ins := range lb.Instrs {
			if ins.Addr == tbl.LoadAddr {
				load = ins
			}
		}
	}
	n, exact := slicer.FindBoundsCheck(tbl.LoadAddr, load.Rs2, 64)
	if !exact && jt.Strict {
		return nil, fmt.Errorf("analysis: %s at %#x: jump table bound not provable (strict mode)", f.Name, jumpAddr)
	}
	if !exact {
		limit, hard := jt.nextBoundary(tbl.TableAddr)
		n = int((limit - tbl.TableAddr) / uint64(tbl.EntrySize))
		// Only cap the extent when no hard bound exists: a boundary- or
		// section-end-derived limit is a proven upper bound, and
		// truncating it would under-approximate the table — the
		// catastrophic failure direction (missed targets become stale
		// jumps into moved code). Over-approximation is safe here
		// because entry decoding below trims at the first implausible
		// target.
		if !hard && n > MaxTableEntries {
			n = MaxTableEntries
		}
	}
	if n <= 0 {
		return nil, fmt.Errorf("analysis: %s at %#x: empty jump table at %#x", f.Name, jumpAddr, tbl.TableAddr)
	}
	tbl.BoundExact = exact

	// Decode and validate entries; inexact bounds trim at the first
	// implausible target instead of failing. Trusted landing-pad
	// evidence tightens the trim: an Assumption-2 candidate that is
	// plausible but unmarked is table overrun, not a case target.
	markTrimmed := false
	for k := 0; k < n; k++ {
		entryAddr := tbl.TableAddr + uint64(k*tbl.EntrySize)
		raw, err := jt.readAt(b, entryAddr, uint64(tbl.EntrySize))
		if err != nil {
			if exact {
				return nil, fmt.Errorf("analysis: %s: table at %#x truncated by section end", f.Name, tbl.TableAddr)
			}
			break
		}
		target, valid := tbl.DecodeEntry(decodeRaw(raw, tbl.Signed))
		if !valid || !plausibleTarget(b, f, tbl, target) {
			if exact {
				return nil, fmt.Errorf("analysis: %s: table entry %d at %#x has implausible target %#x", f.Name, k, tbl.TableAddr, target)
			}
			break
		}
		if !exact && jt.marks != nil && !jt.marks.Marked(target) {
			markTrimmed = true
			break
		}
		tbl.Targets = append(tbl.Targets, target)
	}
	if len(tbl.Targets) == 0 {
		return nil, fmt.Errorf("analysis: %s at %#x: no valid entries at %#x", f.Name, jumpAddr, tbl.TableAddr)
	}
	tbl.Count = len(tbl.Targets)

	// In-text tables are data embedded in code (PPC, Assumption 1).
	txt := b.Text()
	tbl.InText = txt != nil && txt.Contains(tbl.TableAddr)

	// Collect base-forming instructions for cloning.
	collectPatchSites(b.Arch, f, tbl)
	tbl.MarkBounded = markTrimmed
	jt.tablesResolved++
	if markTrimmed {
		jt.markBounded++
	}
	return tbl, nil
}

// decodeRaw reads a little-endian table entry.
func decodeRaw(raw []byte, signed bool) int64 {
	var u uint64
	for i, b := range raw {
		u |= uint64(b) << (8 * i)
	}
	if signed {
		shift := 64 - 8*uint(len(raw))
		return int64(u<<shift) >> shift
	}
	return int64(u)
}

// matchTargetExpr recognises the three tar(x) shapes of Section 5.1.
func matchTargetExpr(e *dataflow.Expr, f *cfg.Func) (*cfg.ResolvedTable, error) {
	switch e.Kind {
	case dataflow.ETableLoad:
		if e.Base == nil || e.Base.Kind != dataflow.EConst {
			return nil, fmt.Errorf("cannot find where the jump table starts (base is %s)", e.Base)
		}
		if e.Size != 8 {
			return nil, fmt.Errorf("sub-word absolute table entries (size %d)", e.Size)
		}
		return &cfg.ResolvedTable{
			LoadAddr:  e.LoadAddr,
			TableAddr: e.Base.Const,
			EntrySize: int(e.Size),
			Signed:    e.Signed,
			Kind:      cfg.TarAbs,
		}, nil
	case dataflow.EAdd:
		// tar(x) = base + load  (table-relative), or
		// tar(x) = funcStart + (load << 2) (A64 compressed).
		a, b := e.A, e.B
		if a.Kind == dataflow.EConst {
			a, b = b, a
		}
		if b.Kind != dataflow.EConst {
			return nil, fmt.Errorf("jump target is %s: untrackable", e)
		}
		switch a.Kind {
		case dataflow.ETableLoad:
			if a.Base == nil || a.Base.Kind != dataflow.EConst {
				return nil, fmt.Errorf("cannot find where the jump table starts (base is %s)", a.Base)
			}
			if a.Base.Const != b.Const {
				return nil, fmt.Errorf("table-relative add base %#x does not match table %#x", b.Const, a.Base.Const)
			}
			return &cfg.ResolvedTable{
				LoadAddr:  a.LoadAddr,
				TableAddr: a.Base.Const,
				EntrySize: int(a.Size),
				Signed:    a.Signed,
				Kind:      cfg.TarTableRel,
			}, nil
		case dataflow.EShl:
			tl := a.A
			if a.Const != 2 || tl == nil || tl.Kind != dataflow.ETableLoad {
				return nil, fmt.Errorf("jump target is %s: untrackable", e)
			}
			if tl.Base == nil || tl.Base.Kind != dataflow.EConst {
				return nil, fmt.Errorf("cannot find where the jump table starts (base is %s)", tl.Base)
			}
			if !f.Contains(b.Const) {
				return nil, fmt.Errorf("compressed table base %#x outside function", b.Const)
			}
			return &cfg.ResolvedTable{
				LoadAddr:  tl.LoadAddr,
				TableAddr: tl.Base.Const,
				EntrySize: int(tl.Size),
				Signed:    tl.Signed,
				Kind:      cfg.TarFuncRel4,
				FuncStart: b.Const,
			}, nil
		}
		return nil, fmt.Errorf("jump target is %s: untrackable", e)
	default:
		return nil, fmt.Errorf("jump target is %s: untrackable", e)
	}
}

// plausibleTarget validates a decoded target the way Section 5.1's
// trimming does: targets must land inside the function (relative forms)
// or inside the code section at instruction alignment (absolute form).
func plausibleTarget(b *bin.Binary, f *cfg.Func, tbl *cfg.ResolvedTable, target uint64) bool {
	if target%b.Arch.InstrAlign() != 0 {
		return false
	}
	switch tbl.Kind {
	case cfg.TarAbs:
		txt := b.Text()
		return txt != nil && txt.Contains(target) && f.Contains(target)
	default:
		return f.Contains(target)
	}
}

// collectPatchSites walks backward from the table read collecting the
// instructions whose immediates form the table base (and, for
// TarFuncRel4, the function-start base), so cloning can retarget them.
func collectPatchSites(a arch.Arch, f *cfg.Func, tbl *cfg.ResolvedTable) {
	blk, ok := f.BlockContaining(tbl.JumpAddr)
	if !ok {
		return
	}
	idx := len(blk.Instrs) - 1
	budget := 96
	matchesTable := func(v uint64) bool { return v == tbl.TableAddr }
	matchesFunc := func(v uint64) bool {
		return tbl.Kind == cfg.TarFuncRel4 && v == tbl.FuncStart
	}
	addSite := func(addr uint64, forFunc bool) {
		if forFunc {
			tbl.FuncStartInstrs = append(tbl.FuncStartInstrs, addr)
		} else {
			tbl.BaseInstrs = append(tbl.BaseInstrs, addr)
		}
	}
	var pagePending map[arch.Reg]bool
	pagePending = map[arch.Reg]bool{}
	for budget > 0 {
		budget--
		idx--
		for idx < 0 {
			if len(blk.Preds) != 1 {
				return
			}
			pb, ok := f.BlockAt(blk.Preds[0])
			if !ok {
				return
			}
			blk = pb
			idx = len(blk.Instrs) - 1
			if idx < 0 {
				idx = -1
			}
		}
		ins := blk.Instrs[idx]
		switch ins.Kind {
		case arch.Lea:
			t, _ := ins.Target()
			if matchesTable(t) {
				addSite(ins.Addr, false)
			} else if matchesFunc(t) {
				addSite(ins.Addr, true)
			}
		case arch.LeaHi:
			t, _ := ins.Target()
			if t == tbl.TableAddr&^0xFFF && pagePending[ins.Rd] {
				addSite(ins.Addr, false)
			}
		case arch.ALUImm, arch.AddImm16:
			isAdd := ins.Kind == arch.AddImm16 || ins.Op == arch.Add
			if isAdd && ins.Rd == ins.Rs1 && uint64(ins.Imm) == tbl.TableAddr&0xFFF {
				addSite(ins.Addr, false)
				pagePending[ins.Rd] = true
			}
		case arch.MovImm:
			if matchesTable(uint64(ins.Imm)) {
				addSite(ins.Addr, false)
			}
		case arch.MovImm16, arch.MovK16:
			chunk := (tbl.TableAddr >> (16 * ins.Shift)) & 0xFFFF
			if uint64(ins.Imm) == chunk {
				addSite(ins.Addr, false)
			}
		}
	}
}
