package core

import (
	"strings"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/instrument"
)

func TestRelocTableFirstClaimWins(t *testing.T) {
	rt := relocTable{text: 0x1000, instr: 0x9000, slot: make([]uint32, 0x100)}
	for _, c := range [][2]uint64{{0x1010, 0x9020}, {0x1010, 0x9040}, {0x10ff, 0x9000}, {0x1000, 0x9008}} {
		if err := rt.claim(c[0], c[1]); err != nil {
			t.Fatalf("claim %#x -> %#x: %v", c[0], c[1], err)
		}
	}
	for _, c := range []struct {
		addr, want uint64
		ok         bool
	}{
		{0x1010, 0x9020, true}, // the later claim did not overwrite
		{0x10ff, 0x9000, true}, // last .text byte onto .instr's first
		{0x1000, 0x9008, true}, // first .text byte
		{0x1011, 0, false},     // unclaimed
		{0x0fff, 0, false},     // below .text: the offset wraps around
		{0x1100, 0, false},     // .text's end
		{0, 0, false},
		{^uint64(0), 0, false},
	} {
		if got, ok := rt.get(c.addr); got != c.want || ok != c.ok {
			t.Errorf("get(%#x) = %#x,%t, want %#x,%t", c.addr, got, ok, c.want, c.ok)
		}
	}
	for _, c := range [][2]uint64{{0x0fff, 0x9000}, {0x1100, 0x9000}, {0, 0x9000}, {0x1020, 0x9000 + 1<<32}} {
		if err := rt.claim(c[0], c[1]); err == nil {
			t.Errorf("claim %#x -> %#x accepted", c[0], c[1])
		}
	}
	clear(rt.slot)
	if _, ok := rt.get(0x1010); ok {
		t.Error("cleared table still maps 0x1010")
	}
	var empty relocTable // no fast variants: the fast-body table is never allocated
	if _, ok := empty.get(0x1010); ok {
		t.Error("empty table maps 0x1010")
	}
}

// TestLayoutRejectsClaimOutsideText corrupts a laid-out plan with
// claims just outside .text: layout must fail with an error, never
// panic and never drop the claim.
func TestLayoutRejectsClaimOutsideText(t *testing.T) {
	img, _, err := richProgram(arch.X64, false).Link()
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(img, AnalysisConfig{Mode: ModeJT})
	if err != nil {
		t.Fatal(err)
	}
	text := img.Text()
	for _, addr := range []uint64{text.End(), text.Addr - 1} {
		p, err := an.PlanFor(Options{Mode: ModeJT, Request: instrument.Request{Where: instrument.BlockEntry}})
		if err != nil {
			t.Fatal(err)
		}
		p.units[0].items[0].claim = addr
		if err := p.layout(p.instrBase); err == nil || !strings.Contains(err.Error(), "outside .text") {
			t.Errorf("claim at %#x: layout error %v", addr, err)
		}
	}
}
