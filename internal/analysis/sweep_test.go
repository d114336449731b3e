package analysis_test

import (
	"encoding/binary"
	"slices"
	"sort"
	"testing"

	"icfgpatch/internal/analysis"
	"icfgpatch/internal/arch"
	"icfgpatch/internal/asm"
	"icfgpatch/internal/bin"
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
	xulCFI, err := workload.LibxulCFICached(arch.X64)
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

// refScan is the reference the streaming sweep is checked against: the
// boundary-hint scan and the landing-pad scan written directly over a
// materialised DecodeAll stream, with map-based sets.
type refScan struct {
	hints, bounds, marks []uint64
	trusted, corrupt     bool
}

func reference(b *bin.Binary) refScan {
	var r refScan
	text := b.Text()
	ins := arch.DecodeAll(b.Arch, text.Data, text.Addr)

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
		if b.CFI() {
			r.bounds = append(r.bounds, i.Addr)
		}
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

// TestStreamingSweepMatchesDecodeAll checks the one-pass sweep against
// the materialised reference on every corpus binary: the walker's
// instruction stream, the jump-table boundary hints, the
// instruction-boundary list, the marker index and the trust decision.
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
		hints, bounds, ev := analysis.SweepState(b)
		if !slices.Equal(hints, ref.hints) {
			t.Errorf("%s: boundary hints differ: %d vs %d", name, len(hints), len(ref.hints))
		}
		if !slices.Equal(bounds, ref.bounds) {
			t.Errorf("%s: instruction boundaries differ: %d vs %d", name, len(bounds), len(ref.bounds))
		}
		if !slices.Equal(ev.Marks.Addrs(), ref.marks) {
			t.Errorf("%s: marker index differs: %d vs %d sites", name, ev.Marks.Count(), len(ref.marks))
		}
		for _, m := range ref.marks {
			if !ev.Marks.Marked(m) || ev.Marks.Marked(m+1) {
				t.Errorf("%s: Marked wrong around %#x", name, m)
				break
			}
		}
		if ev.Trusted != ref.trusted || ev.Corrupt != ref.corrupt {
			t.Errorf("%s: trusted/corrupt = %v/%v, reference %v/%v", name, ev.Trusted, ev.Corrupt, ref.trusted, ref.corrupt)
		}
		if name == "planted-marker-x64" && !ev.Corrupt {
			t.Errorf("%s: planted mid-instruction marker not reported corrupt", name)
		}
		sawTrusted = sawTrusted || ev.Trusted
	}
	if !sawTrusted {
		t.Fatal("no corpus binary reached the trusted path")
	}
}
