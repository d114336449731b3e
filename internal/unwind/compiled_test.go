package unwind

import (
	"testing"

	"icfgpatch/internal/arch"
)

func TestCompiledMatchesInterpreted(t *testing.T) {
	tab := testTable()
	c := Compile(tab)
	mem := fakeMem{0x8000 + 32: 0x1190, 0x8000 + 64 - 8: 0x1050}
	cases := []struct {
		a  arch.Arch
		pc uint64
		sp uint64
		lr uint64
	}{
		{arch.X64, 0x1020, 0x8000, 0},
		{arch.A64, 0x1110, 0x8000, 0x1234},
		{arch.PPC, 0x1200, 0x8000, 0xdead},
	}
	for _, tc := range cases {
		want, err1 := Step(tc.a, tab, mem, identity, tc.pc, tc.sp, tc.lr)
		got, err2 := c.Step(tc.a, mem, identity, tc.pc, tc.sp, tc.lr)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s pc=%#x: error mismatch %v vs %v", tc.a, tc.pc, err1, err2)
		}
		if err1 == nil && got != want {
			t.Errorf("%s pc=%#x: compiled %+v, interpreted %+v", tc.a, tc.pc, got, want)
		}
	}
}

func TestCompiledCoversAndPads(t *testing.T) {
	c := Compile(testTable())
	if !c.Covers(0x1000) || c.Covers(0x1300) || c.Covers(0x10) {
		t.Error("coverage wrong")
	}
	if p, ok := c.PadFor(0x1020); !ok || p.Pad != 0x10F0 {
		t.Errorf("PadFor = %+v, %v", p, ok)
	}
	if _, ok := c.PadFor(0x1060); ok {
		t.Error("pad outside try range")
	}
}

func TestCompiledWalkMatchesInterpreted(t *testing.T) {
	tab := testTable()
	c := Compile(tab)
	mem := fakeMem{0x8000 + 32: 0x11C0}
	want, err1 := Walk(arch.X64, tab, mem, identity, 0x1020, 0x8000, 0, 16)
	got, err2 := c.Walk(arch.X64, mem, identity, 0x1020, 0x8000, 0, 16)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v %v", err1, err2)
	}
	if len(got) != len(want) {
		t.Fatalf("frame counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("frame %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestCompiledAppliesTranslator(t *testing.T) {
	tab := testTable()
	c := Compile(tab)
	relocated := uint64(0x90000020)
	mem := fakeMem{0x8000 + 32: relocated}
	translate := func(pc uint64) uint64 {
		if pc == relocated {
			return 0x1200
		}
		return pc
	}
	fr, err := c.Step(arch.X64, mem, translate, 0x1020, 0x8000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fr.PC != 0x1200 || fr.RawPC != relocated {
		t.Errorf("translated compiled Step = %+v", fr)
	}
}
