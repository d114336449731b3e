package analysis_test

import (
	"encoding/binary"
	"slices"
	"sort"
	"sync"
	"testing"

	"icfgpatch/internal/analysis"
	"icfgpatch/internal/arch"
	"icfgpatch/internal/asm"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/cfg"
	"icfgpatch/internal/workload"
)

// sweepCorpus returns the binaries the streaming sweep is checked on:
// the SPEC-like suite, libcuda (plus a stripped x64 build) and the CFI
// build of 600.perlbench_s on every ISA, libxul-x64 and its CFI build,
// and a CFI binary with a marker planted mid-instruction.
func sweepCorpus(t *testing.T) map[string]*bin.Binary {
	t.Helper()
	out := map[string]*bin.Binary{}
	for _, a := range arch.All() {
		suite, err := workload.SPECSuiteCached(a, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range suite {
			out[p.Profile.Name+"-"+a.String()] = p.Binary
		}
		cuda, err := workload.LibcudaCached(a)
		if err != nil {
			t.Fatal(err)
		}
		out["libcuda-"+a.String()] = cuda.Binary
		if a == arch.X64 {
			stripped := cuda.Binary.Clone()
			stripped.Symbols = nil
			out["libcuda-stripped-x64"] = stripped
		}
		perl, err := workload.SPECCFI(a, false, "600.perlbench_s")
		if err != nil {
			t.Fatal(err)
		}
		out["600.perlbench_s-cfi-"+a.String()] = perl.Binary
	}
	xul, err := workload.LibxulCached(arch.X64)
	if err != nil {
		t.Fatal(err)
	}
	out["libxul-x64"] = xul.Binary
	xulCFI, err := workload.LibxulCFI(arch.X64)
	if err != nil {
		t.Fatal(err)
	}
	out["libxul-cfi-x64"] = xulCFI.Binary
	out["planted-marker-x64"] = plantedMarkerBinary(t)
	return out
}

// plantedMarkerBinary builds an X64 CFI-claiming binary whose data cell
// points at the immediate byte of an add; that byte (0x1A) is the marker
// opcode, so the pointer lands on a marker mid-instruction.
func plantedMarkerBinary(t *testing.T) *bin.Binary {
	t.Helper()
	b := asm.New(arch.X64, false)
	b.SetCFI()
	v := b.Func("victim")
	v.OpI(arch.Add, arch.R3, arch.R1, 0x1A)
	v.Mov(arch.R0, arch.R3)
	v.Return()
	m := b.Func("main")
	m.SetFrame(16)
	m.CallF("victim")
	m.Halt()
	b.SetEntry("main")
	b.FuncPtrGlobal("bad.cell", "victim", 5)
	img, _, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// refScan is the reference the assembled sweep is checked against: the
// boundary-hint scan and the landing-pad scan written directly over a
// materialised DecodeAll stream of the whole text, with map-based sets,
// and the inter-function padding found by decoding each gap between
// function symbols on its own.
type refScan struct {
	hints, marks     []uint64
	trusted, corrupt bool
	padding          [][2]uint64
}

func reference(b *bin.Binary) refScan {
	var r refScan
	text := b.Text()
	ins := arch.DecodeAll(b.Arch, text.Data, text.Addr)
	r.padding = referencePadding(b)

	seen := map[uint64]bool{}
	add := func(a uint64) {
		if b.SectionAt(a) != nil && !seen[a] {
			seen[a] = true
			r.hints = append(r.hints, a)
		}
	}
	pending := map[arch.Reg]uint64{}
	for _, i := range ins {
		switch i.Kind {
		case arch.Lea:
			t, _ := i.Target()
			add(t)
			delete(pending, i.Rd)
		case arch.LeaHi:
			pending[i.Rd], _ = i.Target()
		case arch.ALUImm, arch.AddImm16:
			if page, ok := pending[i.Rd]; ok && (i.Kind == arch.AddImm16 || i.Op == arch.Add) &&
				i.Rd == i.Rs1 && i.Imm >= 0 && i.Imm < 4096 {
				add(page + uint64(i.Imm))
			}
			delete(pending, i.Rd)
		case arch.MovImm:
			add(uint64(i.Imm))
			delete(pending, i.Rd)
		case arch.LoadPC:
			add(i.Addr + uint64(i.Imm))
			delete(pending, i.Rd)
		default:
			for reg := arch.Reg(0); reg < arch.NumRegs; reg++ {
				if i.Defs(b.Arch).Has(reg) {
					delete(pending, reg)
				}
			}
		}
	}
	sort.Slice(r.hints, func(x, y int) bool { return r.hints[x] < r.hints[y] })

	boundary := map[uint64]bool{}
	marked := map[uint64]bool{}
	var imms []uint64
	for k, i := range ins {
		boundary[i.Addr] = true
		switch i.Kind {
		case arch.Mark:
			marked[i.Addr] = true
			r.marks = append(r.marks, i.Addr)
		case arch.MovImm:
			imms = append(imms, uint64(i.Imm))
		case arch.MovK16:
			if k > 0 {
				p := ins[k-1]
				if p.Kind == arch.MovImm16 && p.Shift == 0 && i.Shift == 1 && i.Rd == p.Rd {
					imms = append(imms, uint64(p.Imm)|uint64(i.Imm)<<16)
				}
			}
		}
	}
	if !b.CFI() || len(r.marks) == 0 {
		return r
	}
	for _, s := range b.FuncSymbols() {
		if s.Size > 0 && !marked[s.Addr] {
			r.corrupt = true
			return r
		}
	}
	enc := arch.ForArch(b.Arch)
	check := func(v uint64) {
		if text.Contains(v) && !boundary[v] {
			if i, err := enc.Decode(text.Data[v-text.Addr:], v); err == nil && i.Kind == arch.Mark {
				r.corrupt = true
			}
		}
	}
	for _, rl := range b.Relocs {
		if rl.Kind == bin.RelocRelative {
			check(uint64(rl.Addend))
		}
	}
	if data := b.Section(bin.SecData); data != nil {
		for off := uint64(0); off+8 <= data.Size(); off += 8 {
			check(binary.LittleEndian.Uint64(data.Data[off:]))
		}
	}
	for _, v := range imms {
		check(v)
	}
	r.trusted = !r.corrupt
	return r
}

// referencePadding finds inter-function padding the way the patcher
// did before the sweep found it: every stretch between function symbols
// (zero-size ones split stretches) is decoded on its own, from its start
// with nothing past its end visible, and is padding when everything up
// to the first non-nop is a nop.
func referencePadding(b *bin.Binary) [][2]uint64 {
	text := b.Text()
	var out [][2]uint64
	pos := text.Addr
	flush := func(start, end uint64) {
		end = min(end, text.End())
		if end <= start {
			return
		}
		nops := true
		for _, i := range arch.DecodeAll(b.Arch, text.Data[start-text.Addr:end-text.Addr], start) {
			if nops = i.Kind == arch.Nop; !nops {
				break
			}
		}
		if nops {
			out = append(out, [2]uint64{start, end})
		}
	}
	for _, s := range b.FuncSymbols() {
		if s.Addr > pos {
			flush(pos, s.Addr)
		}
		pos = max(pos, s.Addr+s.Size)
	}
	flush(pos, text.End())
	return out
}

// mapMemo is a test ScanMemo that counts its hits.
type mapMemo struct {
	mu   sync.Mutex
	m    map[[32]byte]*analysis.FuncScan
	hits int
}

func newMapMemo() *mapMemo { return &mapMemo{m: map[[32]byte]*analysis.FuncScan{}} }

func (m *mapMemo) Scan(id [32]byte) *analysis.FuncScan {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.m[id]
	if s != nil {
		m.hits++
	}
	return s
}

func (m *mapMemo) PutScan(id [32]byte, s *analysis.FuncScan) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.m[id] = s
}

// sweepOut is what one assembled sweep produced.
type sweepOut struct {
	hints   []uint64
	ev      *analysis.Evidence
	padding [][2]uint64
}

// assemble sweeps b cut along funcs, through memo when it is non-nil.
func assemble(b *bin.Binary, funcs []bin.Symbol, memo analysis.ScanMemo) sweepOut {
	in := analysis.SweepInput{Funcs: funcs, Evidence: true}
	if memo != nil {
		in.IDs, in.Memo = b.FuncContentHashes(funcs), memo
	}
	jt, ev, pad := analysis.SweepFuncs(b, in)
	return sweepOut{analysis.Hints(jt), ev, pad}
}

// compareSweep reports where an assembled sweep differs from the
// reference: hints, marker index, trust decision and (when checked)
// padding.
func compareSweep(t *testing.T, name string, got sweepOut, ref refScan, padding bool) {
	t.Helper()
	if !slices.Equal(got.hints, ref.hints) {
		t.Errorf("%s: boundary hints differ: %d vs %d", name, len(got.hints), len(ref.hints))
	}
	ev := got.ev
	if !slices.Equal(ev.Marks.Addrs(), ref.marks) {
		t.Errorf("%s: marker index differs: %d vs %d sites", name, ev.Marks.Count(), len(ref.marks))
	}
	for _, m := range ref.marks {
		if !ev.Marks.Marked(m) || ev.Marks.Marked(m+1) && !slices.Contains(ref.marks, m+1) {
			t.Errorf("%s: Marked wrong around %#x", name, m)
			break
		}
	}
	if ev.Trusted != ref.trusted || ev.Corrupt != ref.corrupt {
		t.Errorf("%s: trusted/corrupt = %v/%v, reference %v/%v", name, ev.Trusted, ev.Corrupt, ref.trusted, ref.corrupt)
	}
	if padding && !slices.Equal(got.padding, ref.padding) {
		t.Errorf("%s: padding %#x, reference %#x", name, got.padding, ref.padding)
	}
}

// TestStreamingSweepMatchesDecodeAll checks the assembled sweep against
// the materialised reference on every corpus binary: the walker's
// instruction stream, the jump-table boundary hints, the marker index,
// the trust decision and the padding. Each binary is swept cold (no
// memo), then twice through one memo (the first pass fills it, the
// second takes every function it can from it); a stripped binary is
// also cut along its discovered functions.
func TestStreamingSweepMatchesDecodeAll(t *testing.T) {
	var sawTrusted bool
	for name, b := range sweepCorpus(t) {
		text := b.Text()
		want := arch.DecodeAll(b.Arch, text.Data, text.Addr)
		var got []arch.Instr
		arch.Walk(b.Arch, text.Data, text.Addr, func(i arch.Instr) bool {
			got = append(got, i)
			return true
		})
		if !slices.Equal(got, want) {
			t.Errorf("%s: Walk stream differs from DecodeAll (%d vs %d instructions)", name, len(got), len(want))
		}

		ref := reference(b)
		syms := b.FuncSymbols()
		cold := assemble(b, syms, nil)
		compareSweep(t, name+"/cold", cold, ref, true)
		if name == "planted-marker-x64" && !cold.ev.Corrupt {
			t.Errorf("%s: planted mid-instruction marker not reported corrupt", name)
		}
		sawTrusted = sawTrusted || cold.ev.Trusted

		// Padding is found between symbols: a cut along discovered
		// functions has other gaps.
		symtab := len(syms) > 0
		if !symtab {
			ds, err := cfg.DiscoverFunctions(b)
			if err != nil {
				t.Fatal(err)
			}
			syms = ds
		}
		memo := newMapMemo()
		compareSweep(t, name+"/memo-fill", assemble(b, syms, memo), ref, symtab)
		compareSweep(t, name+"/memo-hit", assemble(b, syms, memo), ref, symtab)
		if memo.hits == 0 {
			t.Errorf("%s: the second pass took nothing from the memo", name)
		}
	}
	if !sawTrusted {
		t.Fatal("no corpus binary reached the trusted path")
	}
}
