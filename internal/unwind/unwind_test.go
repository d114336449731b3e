package unwind

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"icfgpatch/internal/arch"
)

// fakeMem is a sparse word-addressed memory for stepper tests.
// identity is the no-op translator, the one an unmodified binary needs.
func identity(pc uint64) uint64 { return pc }

type fakeMem map[uint64]uint64

func (m fakeMem) ReadU64(addr uint64) (uint64, error) {
	return m[addr], nil
}

func testTable() *Table {
	return NewTable([]FDE{
		{Start: 0x1000, End: 0x1100, FrameSize: 32, Pads: []LandingPad{{TryStart: 0x1010, TryEnd: 0x1050, Pad: 0x10F0}}},
		{Start: 0x1100, End: 0x1180, FrameSize: 0, RAInLR: true},
		{Start: 0x1180, End: 0x1300, FrameSize: 64},
	})
}

func TestFind(t *testing.T) {
	tab := testTable()
	for _, tc := range []struct {
		pc   uint64
		want uint64 // expected FDE start; 0 means not found
	}{
		{0x1000, 0x1000}, {0x10FF, 0x1000}, {0x1100, 0x1100},
		{0x12FF, 0x1180}, {0x1300, 0}, {0x999, 0}, {0x5000000, 0},
	} {
		f, ok := tab.Find(tc.pc)
		if tc.want == 0 {
			if ok {
				t.Errorf("Find(%#x) matched FDE %#x, want none", tc.pc, f.Start)
			}
			continue
		}
		if !ok || f.Start != tc.want {
			t.Errorf("Find(%#x) = %v, %v; want start %#x", tc.pc, f, ok, tc.want)
		}
	}
}

func TestPadFor(t *testing.T) {
	tab := testTable()
	f, _ := tab.Find(0x1020)
	if p, ok := f.PadFor(0x1020); !ok || p.Pad != 0x10F0 {
		t.Errorf("PadFor = %+v, %v", p, ok)
	}
	if _, ok := f.PadFor(0x1060); ok {
		t.Error("PadFor matched outside the try range")
	}
}

func TestStepX64(t *testing.T) {
	tab := testTable()
	// Frame at pc=0x1020 with FrameSize 32: RA at sp+32.
	mem := fakeMem{0x8000 + 32: 0x1190}
	fr, err := Step(arch.X64, tab, mem, identity, 0x1020, 0x8000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fr.PC != 0x1190 || fr.SP != 0x8000+32+8 {
		t.Errorf("Step = %+v", fr)
	}
}

func TestStepFixedLeafUsesLR(t *testing.T) {
	tab := testTable()
	fr, err := Step(arch.A64, tab, fakeMem{}, identity, 0x1110, 0x8000, 0x1234)
	if err != nil {
		t.Fatal(err)
	}
	if fr.PC != 0x1234 || fr.SP != 0x8000 {
		t.Errorf("leaf Step = %+v", fr)
	}
}

func TestStepFixedNonLeafReadsSavedLR(t *testing.T) {
	tab := testTable()
	mem := fakeMem{0x8000 + 64 - 8: 0x1050}
	fr, err := Step(arch.PPC, tab, mem, identity, 0x1200, 0x8000, 0xdead)
	if err != nil {
		t.Fatal(err)
	}
	if fr.PC != 0x1050 || fr.SP != 0x8040 {
		t.Errorf("non-leaf Step = %+v", fr)
	}
}

func TestStepUnknownPCFails(t *testing.T) {
	// A relocated-code PC finds no FDE: the exact failure mode of
	// rewritten binaries without RA translation.
	if _, err := Step(arch.X64, testTable(), fakeMem{}, identity, 0x90000000, 0x8000, 0); err == nil {
		t.Error("Step succeeded for a PC with no unwind info")
	}
}

func TestStepAppliesTranslator(t *testing.T) {
	tab := testTable()
	relocated := uint64(0x90000020)
	mem := fakeMem{0x8000 + 32: relocated}
	translate := func(pc uint64) uint64 {
		if pc == relocated {
			return 0x1200
		}
		return pc
	}
	fr, err := Step(arch.X64, tab, mem, translate, 0x1020, 0x8000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fr.PC != 0x1200 || fr.RawPC != relocated {
		t.Errorf("translated Step = %+v", fr)
	}
}

func TestWalk(t *testing.T) {
	tab := testTable()
	// Call chain: outer (0x1180 frame 64) -> mid (0x1000 frame 32) ->
	// leaf running at pc 0x1110 with LR into mid.
	mem := fakeMem{
		0x8000 + 32: 0x11C0, // mid's pushed RA -> outer (x64 layout)
	}
	frames, err := Walk(arch.X64, tab, mem, identity, 0x1020, 0x8000, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 2 || frames[0].PC != 0x1020 || frames[1].PC != 0x11C0 {
		t.Errorf("Walk = %+v", frames)
	}
}

func TestWalkStopsAtForeignPC(t *testing.T) {
	tab := testTable()
	mem := fakeMem{0x8000 + 32: 0x7777777} // caller outside any FDE
	frames, err := Walk(arch.X64, tab, mem, identity, 0x1020, 0x8000, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 {
		t.Errorf("Walk returned %d frames, want 1 (stop at foreign PC)", len(frames))
	}
}

func TestWalkRunawayLimit(t *testing.T) {
	// A frame whose saved RA points back into itself must hit the frame
	// limit, not loop forever.
	tab := NewTable([]FDE{{Start: 0x1000, End: 0x1100, FrameSize: 0}})
	mem := fakeMem{0x8000: 0x1010}
	loop := fakeMem{}
	for sp := uint64(0x8000); sp < 0x9000; sp += 8 {
		loop[sp] = 0x1010
	}
	_ = mem
	if _, err := Walk(arch.X64, tab, loop, identity, 0x1010, 0x8000, 0, 8); err == nil {
		t.Error("runaway unwind not detected")
	}
}

func TestTableEncodeDecodeRoundTrip(t *testing.T) {
	tab := testTable()
	enc := tab.Encode()
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Len() != tab.Len() {
		t.Fatalf("decoded %d FDEs, want %d", dec.Len(), tab.Len())
	}
	for i, f := range dec.FDEs() {
		want := tab.FDEs()[i]
		if f.Start != want.Start || f.End != want.End || f.FrameSize != want.FrameSize || f.RAInLR != want.RAInLR || len(f.Pads) != len(want.Pads) {
			t.Errorf("FDE %d = %+v, want %+v", i, f, want)
		}
	}
	// Truncations must fail cleanly.
	for _, cut := range []int{0, 4, len(enc) / 2, len(enc) - 1} {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Errorf("truncated table at %d accepted", cut)
		}
	}
}

func TestPCTableFindAndValue(t *testing.T) {
	tab := NewPCTable([]PCFunc{
		{Start: 0x2000, End: 0x2100, ID: 1},
		{Start: 0x2100, End: 0x2400, ID: 2},
	})
	if f, ok := tab.FindFunc(0x20FF); !ok || f.ID != 1 {
		t.Errorf("FindFunc = %+v, %v", f, ok)
	}
	if _, ok := tab.FindFunc(0x2400); ok {
		t.Error("FindFunc matched past the end")
	}
	if v, ok := tab.PCValue(0x2110); !ok || v != uint64(2)<<32|0x10 {
		t.Errorf("PCValue = %#x, %v", v, ok)
	}
	if _, ok := tab.PCValue(0x90000000); ok {
		t.Error("PCValue resolved a relocated PC — Go runtime would be fooled")
	}
}

func TestPCTableEncodeDecode(t *testing.T) {
	tab := NewPCTable([]PCFunc{{Start: 5, End: 10, ID: 7}, {Start: 1, End: 5, ID: 3}})
	dec, err := DecodePCTable(tab.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Len() != 2 {
		t.Fatalf("len = %d", dec.Len())
	}
	if f, ok := dec.FindFunc(2); !ok || f.ID != 3 {
		t.Errorf("FindFunc(2) = %+v, %v", f, ok)
	}
	if _, err := DecodePCTable([]byte{1}); err == nil {
		t.Error("short pclntab accepted")
	}
	enc := tab.Encode()
	binary.LittleEndian.PutUint64(enc, 99) // lie about the count
	if _, err := DecodePCTable(enc); err == nil {
		t.Error("overcounted pclntab accepted")
	}
}

func TestPCTableQuickLookupInvariant(t *testing.T) {
	f := func(starts []uint32) bool {
		var funcs []PCFunc
		for i, s := range starts {
			funcs = append(funcs, PCFunc{Start: uint64(s) << 4, End: uint64(s)<<4 + 8, ID: uint32(i)})
		}
		tab := NewPCTable(funcs)
		for _, fn := range funcs {
			got, ok := tab.FindFunc(fn.Start)
			if !ok {
				return false
			}
			// Overlapping ranges may resolve to a different ID, but the
			// result must still contain the queried PC.
			if fn.Start < got.Start || fn.Start >= got.End {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
