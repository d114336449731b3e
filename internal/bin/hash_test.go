package bin_test

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/cfg"
	"icfgpatch/internal/workload"
)

// scanHash is the per-function reference algorithm FuncContentHashes
// must reproduce exactly: it scans every relocation for every function
// and hashes the in-range ones in slice order. Any difference would
// change every unit ID the delta engine keys analyses by.
func scanHash(b *bin.Binary, sym bin.Symbol) [32]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		io.WriteString(h, s)
		h.Write([]byte{0})
	}
	str("icfg-func-v1")
	str(sym.Name)
	var flags uint64
	if b.PIE {
		flags |= 1
	}
	if b.SharedLib {
		flags |= 2
	}
	put(uint64(b.Arch)<<8 | flags)
	put(sym.Addr)
	put(sym.Size)
	if s := b.SectionAt(sym.Addr); s != nil {
		end := sym.Addr + sym.Size + uint64(arch.ForArch(b.Arch).MaxLen()-1)
		if end > s.End() {
			end = s.End()
		}
		if sym.Addr < end {
			h.Write(s.Data[sym.Addr-s.Addr : end-s.Addr])
		}
	}
	inRange := func(off uint64) bool { return off >= sym.Addr && off < sym.Addr+sym.Size }
	hashRelocs := func(tag string, relocs []bin.Reloc) {
		str(tag)
		for _, r := range relocs {
			if !inRange(r.Off) {
				continue
			}
			put(uint64(r.Kind))
			put(r.Off)
			put(uint64(r.Addend))
			str(r.Sym)
		}
	}
	hashRelocs("relocs", b.Relocs)
	hashRelocs("link", b.LinkRelocs)
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// checkHashes compares the batch hashes of b's functions (discovered
// ones when b is stripped) with the reference scan.
func checkHashes(t *testing.T, name string, b *bin.Binary) {
	t.Helper()
	syms := b.FuncSymbols()
	if len(syms) == 0 {
		var err error
		if syms, err = cfg.DiscoverFunctions(b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	got := b.FuncContentHashes(syms)
	for k, sym := range syms {
		if want := scanHash(b, sym); got[k] != want {
			t.Fatalf("%s %s: batch hash %x, reference %x", name, sym.Name, got[k], want)
		}
	}
	if one := b.FuncContentHashes(syms[:1])[0]; one != got[0] {
		t.Fatalf("%s: a one-symbol batch hashes %x, the full batch %x", name, one, got[0])
	}
}

// TestFuncContentHashesMatchReference covers the generated corpus:
// SPEC, libcuda (with and without symbols) and CFI perlbench on every
// ISA, plus libxul, Docker and their CFI builds on x64.
func TestFuncContentHashesMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the workload corpus")
	}
	type gen struct {
		name string
		fn   func(arch.Arch) (*workload.Program, error)
	}
	gens := []gen{
		{"libcuda", workload.Libcuda},
		{"perlbench-cfi", func(a arch.Arch) (*workload.Program, error) {
			return workload.SPECCFI(a, false, "600.perlbench_s")
		}},
	}
	for _, a := range []arch.Arch{arch.X64, arch.PPC, arch.A64} {
		suite, err := workload.SPECSuiteCached(a, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range suite {
			checkHashes(t, p.Profile.Name+"-"+a.String(), p.Binary)
		}
		for _, g := range gens {
			p, err := g.fn(a)
			if err != nil {
				t.Fatalf("%s-%s: %v", g.name, a, err)
			}
			checkHashes(t, g.name+"-"+a.String(), p.Binary)
			if g.name == "libcuda" {
				stripped := p.Binary.Clone()
				stripped.Symbols = nil
				checkHashes(t, "libcuda-stripped-"+a.String(), stripped)
			}
		}
	}
	// The large-application generators target x64 only.
	for _, g := range []gen{
		{"libxul", workload.Libxul}, {"libxul-cfi", workload.LibxulCFI},
		{"docker", workload.Docker}, {"docker-cfi", workload.DockerCFI},
		{"gotable-cfi", workload.GoTableCFI},
	} {
		p, err := g.fn(arch.X64)
		if err != nil {
			t.Fatal(err)
		}
		checkHashes(t, g.name+"-x64", p.Binary)
	}
}

// TestFuncContentHashesUnsortedRelocs pins the relocation order the
// hash input keeps: unsorted, duplicated at one offset, and sitting
// exactly on function boundaries.
func TestFuncContentHashesUnsortedRelocs(t *testing.T) {
	b := bin.New(arch.X64)
	b.PIE = true
	b.Sections = []*bin.Section{{Name: bin.SecText, Addr: 0x1000, Data: make([]byte, 0x40), Flags: bin.FlagAlloc | bin.FlagExec, Align: 16}}
	syms := []bin.Symbol{
		{Name: "a", Addr: 0x1000, Size: 0x10, Kind: bin.SymFunc},
		{Name: "b", Addr: 0x1010, Size: 0x10, Kind: bin.SymFunc},
		{Name: "c", Addr: 0x1020, Size: 0x20, Kind: bin.SymFunc},
		{Name: "empty", Addr: 0x1030, Size: 0, Kind: bin.SymFunc},
	}
	b.Relocs = []bin.Reloc{
		{Kind: bin.RelocRelative, Off: 0x1018, Addend: 3},
		{Kind: bin.RelocRelative, Off: 0x1010, Addend: 1}, // b's first byte
		{Kind: bin.RelocRelative, Off: 0x1018, Addend: 2}, // duplicate offset
		{Kind: bin.RelocRelative, Off: 0x100f, Addend: 9}, // a's last byte
		{Kind: bin.RelocRelative, Off: 0x1020, Addend: 4}, // b's end, c's start
		{Kind: bin.RelocRelative, Off: 0x0fff, Addend: 5}, // before every function
		{Kind: bin.RelocRelative, Off: 0x1040, Addend: 6}, // past every function
		{Kind: bin.RelocRelative, Off: 0x1018, Addend: 7},
	}
	b.LinkRelocs = []bin.Reloc{
		{Kind: bin.RelocAbs64, Off: 0x1024, Sym: "b"},
		{Kind: bin.RelocAbs64, Off: 0x1000, Sym: "a"},
		{Kind: bin.RelocAbs64, Off: 0x1024, Sym: "a"},
	}
	got := b.FuncContentHashes(syms)
	seen := map[[32]byte]bool{}
	for k, sym := range syms {
		if want := scanHash(b, sym); got[k] != want {
			t.Errorf("%s: batch hash %x, reference %x", sym.Name, got[k], want)
		}
		seen[got[k]] = true
	}
	if len(seen) != len(syms) {
		t.Errorf("distinct functions share a hash: %v", got)
	}
	// Reordering two same-offset relocations changes b's hash: the
	// input is slice order, not offset order.
	b.Relocs[0], b.Relocs[2] = b.Relocs[2], b.Relocs[0]
	if again := b.FuncContentHashes(syms); again[1] == got[1] {
		t.Error("swapping same-offset relocations left the hash unchanged")
	} else if again[1] != scanHash(b, syms[1]) {
		t.Error("batch hash diverged from the reference after the swap")
	}
}
