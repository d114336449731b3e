package bin

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"icfgpatch/internal/arch"
)

// testBinary builds a small but fully populated binary.
func testBinary() *Binary {
	b := New(arch.X64)
	b.PIE = true
	b.Entry = 0x401000
	b.TOCValue = 0x10008000
	b.Sections = []*Section{
		{Name: SecText, Addr: 0x401000, Data: []byte{0x90, 0xC3, 0x90, 0x90}, Flags: FlagAlloc | FlagExec, Align: 16},
		{Name: SecRodata, Addr: 0x402000, Data: make([]byte, 64), Flags: FlagAlloc, Align: 8},
		{Name: SecData, Addr: 0x403000, Data: make([]byte, 32), Flags: FlagAlloc | FlagWrite, Align: 8},
		{Name: SecEhFrame, Addr: 0x404000, Data: []byte{1, 2, 3}, Flags: FlagAlloc, Align: 8},
		{Name: ".debug_info", Addr: 0, Data: make([]byte, 128), Flags: 0, Align: 1},
	}
	b.Symbols = []Symbol{
		{Name: "main", Addr: 0x401000, Size: 2, Kind: SymFunc, Global: true},
		{Name: "helper", Addr: 0x401002, Size: 2, Kind: SymFunc},
		{Name: "gvar", Addr: 0x403000, Size: 8, Kind: SymObject},
	}
	b.DynSymbols = []Symbol{{Name: "main", Addr: 0x401000, Size: 2, Kind: SymFunc, Global: true}}
	b.Relocs = []Reloc{{Kind: RelocRelative, Off: 0x403000, Addend: 0x401000}}
	b.LinkRelocs = []Reloc{{Kind: RelocAbs64, Off: 0x403008, Addend: 4, Sym: "main"}}
	b.Meta["lang"] = "c++"
	b.Meta["exceptions"] = "1"
	return b
}

func TestMarshalRoundTrip(t *testing.T) {
	b := testBinary()
	data := b.Marshal()
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), data) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, b)
	}
}

// TestMarshalExactSize: Marshal sizes its buffer from marshalSize, so
// the output fills it exactly and is never grown on the way.
func TestMarshalExactSize(t *testing.T) {
	empty := New(arch.A64)
	for name, b := range map[string]*Binary{"full": testBinary(), "empty": empty} {
		out := b.Marshal()
		if len(out) != b.marshalSize() || cap(out) != len(out) {
			t.Errorf("%s: len %d cap %d, marshalSize %d", name, len(out), cap(out), b.marshalSize())
		}
	}
}

func TestMarshalDeterministic(t *testing.T) {
	b1, b2 := testBinary(), testBinary()
	// Shuffle section and meta insertion order; the output must not vary.
	b2.Sections[0], b2.Sections[2] = b2.Sections[2], b2.Sections[0]
	if !bytes.Equal(b1.Marshal(), b2.Marshal()) {
		t.Error("marshalling is not deterministic under section reordering")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("not a binary")); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
	data := testBinary().Marshal()
	for _, cut := range []int{9, 20, len(data) / 2, len(data) - 1} {
		if _, err := Unmarshal(data[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestUnmarshalTruncationQuick(t *testing.T) {
	data := testBinary().Marshal()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cut := r.Intn(len(data))
		_, err := Unmarshal(data[:cut])
		return err != nil // must never succeed, and never panic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWriteReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.icfg")
	b := testBinary()
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), b.Marshal()) {
		t.Error("file round trip mismatch")
	}
}

func TestSectionLookup(t *testing.T) {
	b := testBinary()
	if s := b.Section(SecText); s == nil || s.Addr != 0x401000 {
		t.Fatal("Section(.text) failed")
	}
	if b.Text() == nil {
		t.Fatal("Text() failed")
	}
	if s := b.SectionAt(0x402010); s == nil || s.Name != SecRodata {
		t.Error("SectionAt inside .rodata failed")
	}
	if b.SectionAt(0x500000) != nil {
		t.Error("SectionAt unmapped address returned a section")
	}
	// Unloaded sections are not found by address.
	if b.SectionAt(0) != nil {
		t.Error("SectionAt found the unloaded debug section")
	}
}

func TestReadWriteAt(t *testing.T) {
	b := testBinary()
	if err := b.WriteAt(0x402004, []byte{9, 8, 7}); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadAt(0x402004, 3)
	if err != nil || !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Errorf("ReadAt = %v, %v", got, err)
	}
	if _, err := b.ReadAt(0x402000, 1<<16); err == nil {
		t.Error("cross-boundary read accepted")
	}
	if err := b.WriteAt(0x999999, []byte{1}); err == nil {
		t.Error("unmapped write accepted")
	}
}

func TestAddSectionOverlap(t *testing.T) {
	b := testBinary()
	if _, err := b.AddSection(&Section{Name: ".new", Addr: 0x402020, Data: make([]byte, 8), Flags: FlagAlloc}); err == nil {
		t.Error("overlapping section accepted")
	}
	if _, err := b.AddSection(&Section{Name: SecText, Addr: 0x900000, Data: []byte{0}, Flags: FlagAlloc}); err == nil {
		t.Error("duplicate section name accepted")
	}
	if _, err := b.AddSection(&Section{Name: ".ok", Addr: 0x900000, Data: make([]byte, 8), Flags: FlagAlloc}); err != nil {
		t.Errorf("valid section rejected: %v", err)
	}
	b.RemoveSection(".ok")
	if b.Section(".ok") != nil {
		t.Error("RemoveSection failed")
	}
}

func TestSymbolQueries(t *testing.T) {
	b := testBinary()
	funcs := b.FuncSymbols()
	if len(funcs) != 2 || funcs[0].Name != "main" || funcs[1].Name != "helper" {
		t.Errorf("FuncSymbols = %+v", funcs)
	}
	if s, ok := b.SymbolByName("gvar"); !ok || s.Kind != SymObject {
		t.Error("SymbolByName failed")
	}
	if _, ok := b.SymbolByName("nope"); ok {
		t.Error("SymbolByName found a ghost")
	}
	if f, ok := b.FuncAt(0x401003); !ok || f.Name != "helper" {
		t.Errorf("FuncAt = %+v, %v", f, ok)
	}
	if _, ok := b.FuncAt(0x403000); ok {
		t.Error("FuncAt matched a data symbol")
	}
}

func TestLoadedSizeExcludesDebug(t *testing.T) {
	b := testBinary()
	want := uint64(4 + 64 + 32 + 3)
	if got := b.LoadedSize(); got != want {
		t.Errorf("LoadedSize = %d, want %d", got, want)
	}
	if got := b.MaxLoadedAddr(); got != 0x404003 {
		t.Errorf("MaxLoadedAddr = %#x", got)
	}
}

func TestMetaHelpers(t *testing.T) {
	b := testBinary()
	if b.Lang() != "c++" || !b.UsesExceptions() || b.GoRuntime() {
		t.Error("meta helpers wrong")
	}
	if !hasReloc(b, 0x403000) || hasReloc(b, 0x403008) {
		t.Error("HasReloc wrong (link relocs must not count)")
	}
}

func TestCloneIsDeep(t *testing.T) {
	b := testBinary()
	c := b.Clone()
	if !reflect.DeepEqual(b, c) {
		t.Fatal("clone differs")
	}
	c.Sections[0].Data[0] = 0xFF
	c.Meta["lang"] = "go"
	c.Symbols[0].Name = "changed"
	if b.Sections[0].Data[0] == 0xFF || b.Meta["lang"] == "go" || b.Symbols[0].Name == "changed" {
		t.Error("clone shares storage with the original")
	}
}

func TestCloneSharedCOW(t *testing.T) {
	b := testBinary()
	c := b.CloneShared()
	if &c.Sections[0].Data[0] != &b.Sections[0].Data[0] {
		t.Fatal("CloneShared copied section data eagerly")
	}
	orig := b.Sections[0].Data[0]

	// A write through the clone detaches the clone's copy only.
	c.Sections[0].MutableData()[0] = 0xFF
	if b.Sections[0].Data[0] != orig {
		t.Fatal("write through clone corrupted the source")
	}
	if c.Sections[0].Data[0] != 0xFF {
		t.Fatal("write through clone lost")
	}

	// The source side is COW too: a fresh clone keeps the bytes it saw
	// even when the SOURCE is written afterwards.
	c2 := b.CloneShared()
	if err := b.WriteAt(b.Sections[0].Addr, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	if c2.Sections[0].Data[0] != orig {
		t.Fatal("write through source corrupted an existing clone")
	}
	if b.Sections[0].Data[0] != 0xAA {
		t.Fatal("write through source lost")
	}

	// Metadata is deep from the start.
	c.Meta["lang"] = "go"
	c.Symbols[0].Name = "changed"
	if b.Meta["lang"] == "go" || b.Symbols[0].Name == "changed" {
		t.Error("CloneShared shares metadata storage")
	}
}

// TestCloneSharedConcurrent pins the concurrency contract the rewrite
// service relies on: many goroutines may CloneShared one read-only
// binary at once (each marking the shared source sections), each
// writing through its own clone only. Run under -race via make race.
func TestCloneSharedConcurrent(t *testing.T) {
	b := testBinary()
	orig := b.Sections[0].Data[0]
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := b.CloneShared()
			c.Sections[0].MutableData()[0] = byte(i)
		}(i)
	}
	wg.Wait()
	if b.Sections[0].Data[0] != orig {
		t.Fatal("concurrent clone writes corrupted the source")
	}
}

func TestValidate(t *testing.T) {
	b := testBinary()
	if err := b.Validate(); err != nil {
		t.Fatalf("valid binary rejected: %v", err)
	}
	noText := b.Clone()
	noText.RemoveSection(SecText)
	if err := noText.Validate(); err == nil {
		t.Error("missing .text accepted")
	}
	badEntry := b.Clone()
	badEntry.Entry = 0xdead0000
	if err := badEntry.Validate(); err == nil {
		t.Error("unmapped entry accepted")
	}
	badReloc := b.Clone()
	badReloc.Relocs = append(badReloc.Relocs, Reloc{Off: 0xdead0000})
	if err := badReloc.Validate(); err == nil {
		t.Error("unmapped relocation accepted")
	}
	overlap := b.Clone()
	overlap.Sections[1].Addr = 0x401002 // collide with .text
	if err := overlap.Validate(); err == nil {
		t.Error("overlapping sections accepted")
	}
}

func TestAddrMapRoundTrip(t *testing.T) {
	pairs := []AddrPair{{From: 30, To: 3}, {From: 10, To: 1}, {From: 20, To: 2}}
	enc := EncodeAddrMap(pairs)
	dec, err := DecodeAddrMap(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 3 || dec[0].From != 10 || dec[2].To != 3 {
		t.Errorf("decoded = %+v", dec)
	}
	m := NewAddrMap(dec)
	for _, p := range pairs {
		if got, ok := m.Lookup(p.From); !ok || got != p.To {
			t.Errorf("Lookup(%d) = %d, %v", p.From, got, ok)
		}
	}
	if _, ok := m.Lookup(15); ok {
		t.Error("Lookup found a missing key")
	}
	if m.Len() != 3 {
		t.Error("Len wrong")
	}
}

func TestAddrMapQuick(t *testing.T) {
	f := func(keys []uint64) bool {
		pairs := make([]AddrPair, len(keys))
		want := map[uint64]uint64{}
		for i, k := range keys {
			pairs[i] = AddrPair{From: k, To: k ^ 0xABCD}
			want[k] = k ^ 0xABCD
		}
		dec, err := DecodeAddrMap(EncodeAddrMap(pairs))
		if err != nil {
			return false
		}
		m := NewAddrMap(dec)
		for k, v := range want {
			if got, ok := m.Lookup(k); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeAddrMapRejectsShort(t *testing.T) {
	if _, err := DecodeAddrMap([]byte{1, 2}); err == nil {
		t.Error("short map accepted")
	}
	enc := EncodeAddrMap([]AddrPair{{1, 2}})
	if _, err := DecodeAddrMap(enc[:len(enc)-4]); err == nil {
		t.Error("truncated map accepted")
	}
}

// hasReloc reports whether a runtime relocation targets the slot at off.
func hasReloc(b *Binary, off uint64) bool {
	for _, r := range b.Relocs {
		if r.Off == off {
			return true
		}
	}
	return false
}
