package core

import (
	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/cfg"
)

// Trampoline installation helpers: choosing a form that fits each
// planned superblock (direct/long in place, multi-hop through scratch
// space, trap as the last resort) and writing it into the original text.
// Installation stays serial — the scratch pool is allocated in a
// deterministic order the multi-hop pass depends on — but it consumes
// the plan's precomputed trampoline jobs.

// preserveMark keeps a landing-pad marker live at a trampoline site:
// when the superblock's block opens with an arch.Mark, the marker bytes
// are rewritten at the block start (the Verify fill may have overwritten
// them) and the superblock comes back shifted past the marker, so the
// installed sequence is [marker][trampoline]. Indirect transfers that
// still target the original address — dir/jt modes never rewrite
// pointers — then land on a marker under CET enforcement and bounce to
// relocated code as before. Blocks that do not open with a marker (every
// block of a marker-less binary) come back unchanged, preserving
// byte-identity. The shift is skipped when it would leave no room for
// the guaranteed trap fallback.
func preserveMark(nb *bin.Binary, sb superblock) (superblock, error) {
	blk := sb.Block
	if blk == nil || sb.Start != blk.Start || len(blk.Instrs) == 0 || blk.Instrs[0].Kind != arch.Mark {
		return sb, nil
	}
	a := nb.Arch
	markLen := blk.Instrs[0].EncLen
	if sb.Space-markLen < arch.TrapTrampolineLen(a) {
		return sb, nil
	}
	bs, err := arch.ForArch(a).Append(nil, arch.Instr{Kind: arch.Mark})
	if err != nil {
		return sb, err
	}
	if err := nb.WriteAt(sb.Start, bs); err != nil {
		return sb, err
	}
	return superblock{Block: blk, Start: sb.Start + uint64(markLen), Space: sb.Space - markLen}, nil
}

// scratchSite is where a trampoline may claim a scratch register: the
// start of a block of Graph.Funcs[idx]. Only the ppc and a64 long forms
// need one (the x64 long form is a plain jmp), and reg computes the
// function's liveness on first need, so a function whose trampolines
// never ask keeps none.
type scratchSite struct {
	an    *Analysis
	idx   int
	block uint64
}

// reg returns the register liveness finds dead at the block start, or
// arch.NoReg.
func (s scratchSite) reg() arch.Reg { return s.an.scratchAt(s.idx, s.block) }

// directOrLong tries the in-place trampoline forms: a single direct
// branch, then the long sequence, within the superblock's space.
func directOrLong(b *bin.Binary, sb superblock, to uint64, scratch scratchSite) (arch.Trampoline, bool) {
	a := b.Arch
	if a == arch.X64 {
		if sb.Space >= arch.LongTrampolineLen(a) {
			if tr, ok := arch.NewLongTrampoline(a, sb.Start, to, arch.NoReg, 0); ok {
				return tr, true
			}
		}
		return arch.Trampoline{}, false
	}
	if sb.Space >= arch.ShortTrampolineLen(a) {
		if tr, ok := arch.NewShortTrampoline(a, sb.Start, to); ok {
			return tr, true
		}
	}
	// No long form is shorter than LongTrampolineLen: below it, skip
	// the register lookup.
	if sb.Space < arch.LongTrampolineLen(a) {
		return arch.Trampoline{}, false
	}
	if tr, ok := arch.NewLongTrampoline(a, sb.Start, to, scratch.reg(), b.TOCValue); ok && sb.Space >= tr.Len {
		return tr, true
	}
	return arch.Trampoline{}, false
}

// multiHop places a short trampoline in the block and a long one in
// scratch space within the short form's range (Section 7's
// multi-trampoline design).
func multiHop(b *bin.Binary, sb superblock, to uint64, site scratchSite, pool *scratchPool) (arch.Trampoline, arch.Trampoline, bool) {
	a := b.Arch
	if sb.Space < arch.ShortTrampolineLen(a) {
		return arch.Trampoline{}, arch.Trampoline{}, false
	}
	scratch := arch.NoReg
	if a != arch.X64 {
		scratch = site.reg()
	}
	hopLen := arch.LongTrampolineLen(a)
	if a == arch.PPC && scratch == arch.NoReg {
		hopLen = arch.LongSpillTrampolineLen(a)
	}
	if a == arch.A64 && scratch == arch.NoReg {
		return arch.Trampoline{}, arch.Trampoline{}, false // paper: fall back to trap
	}
	rng := arch.ShortBranchRange(a)
	hopAddr, ok := pool.alloc(hopLen, sb.Start, rng, rng)
	if !ok {
		return arch.Trampoline{}, arch.Trampoline{}, false
	}
	short, ok := arch.NewShortTrampoline(a, sb.Start, hopAddr)
	if !ok {
		return arch.Trampoline{}, arch.Trampoline{}, false
	}
	long, ok := arch.NewLongTrampoline(a, hopAddr, to, scratch, b.TOCValue)
	if !ok || long.Len > hopLen {
		return arch.Trampoline{}, arch.Trampoline{}, false
	}
	return short, long, true
}

// installTrampoline writes the trampoline into the text section and
// donates the superblock's remaining space to the scratch pool.
func installTrampoline(nb *bin.Binary, tr arch.Trampoline, pool *scratchPool, sb superblock, mx *Metrics) error {
	if err := writeTrampoline(nb, tr); err != nil {
		return err
	}
	mx.Trampolines[tr.Class]++
	leftover := sb.Start + uint64(tr.Len)
	end := sb.Start + uint64(sb.Space)
	if end > leftover {
		pool.add(leftover, end)
	}
	return nil
}

// writeTrampoline encodes and stores a trampoline's bytes.
func writeTrampoline(nb *bin.Binary, tr arch.Trampoline) error {
	bs, err := tr.Encode(nb.Arch)
	if err != nil {
		return err
	}
	return nb.WriteAt(tr.From, bs)
}

// fillTextIllegal overwrites an instrumented function's code bytes with
// illegal instructions, sparing embedded data ranges — the paper's
// strong verification: any control flow escaping the trampolines faults
// immediately. Each maximal run of code bytes — the function's extent
// inside .text minus its sorted DataRanges — is filled through
// arch.FillIllegal, the same primitive the emit stage uses for .instr
// padding.
func fillTextIllegal(a arch.Arch, text *bin.Section, f *cfg.Func) {
	data := text.MutableData() // text may still be shared with the input binary
	lo, hi := max(f.Entry, text.Addr), min(f.End, text.End())
	fill := func(start, end uint64) {
		if start < end {
			arch.FillIllegal(a, data[start-text.Addr:end-text.Addr])
		}
	}
	pos := lo
	for _, dr := range f.DataRanges {
		fill(pos, min(dr[0], hi))
		pos = max(pos, dr[1])
	}
	fill(pos, hi)
}

// writeU64 stores a 64-bit value at a mapped address.
func writeU64(nb *bin.Binary, addr, v uint64) error {
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	return nb.WriteAt(addr, buf[:])
}
