package rtlib

import (
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
)

func rewrittenLike() *bin.Binary {
	b := bin.New(arch.X64)
	b.Entry = 0x401000
	b.Sections = []*bin.Section{
		{Name: bin.SecText, Addr: 0x401000, Data: []byte{0x90}, Flags: bin.FlagAlloc | bin.FlagExec},
		{Name: bin.SecTrampMap, Addr: 0x500000, Data: bin.EncodeAddrMap([]bin.AddrPair{{From: 0x401000, To: 0x900000}}), Flags: bin.FlagAlloc},
		{Name: bin.SecRAMap, Addr: 0x501000, Data: bin.EncodeAddrMap([]bin.AddrPair{{From: 0x900010, To: 0x401010}}), Flags: bin.FlagAlloc},
	}
	b.Meta[MetaWrapUnwind] = "1"
	return b
}

func TestPreloadReadsMaps(t *testing.T) {
	lib, err := Preload(rewrittenLike())
	if err != nil {
		t.Fatal(err)
	}
	if to, ok := lib.TrapTarget(0x401000); !ok || to != 0x900000 {
		t.Errorf("TrapTarget = %#x, %v", to, ok)
	}
	if _, ok := lib.TrapTarget(0x999); ok {
		t.Error("TrapTarget hit a missing entry")
	}
	if got := lib.TranslateRA(0x900010); got != 0x401010 {
		t.Errorf("TranslateRA = %#x", got)
	}
	// Pass-through for unknown addresses (uninstrumented frames).
	if got := lib.TranslateRA(0x777); got != 0x777 {
		t.Errorf("unknown RA translated to %#x", got)
	}
	if !lib.WrapsUnwind() || lib.PatchesGoRuntime() {
		t.Error("hook flags wrong")
	}
	if lib.TrapCount() != 1 || lib.ramap.Len() != 1 {
		t.Error("counts wrong")
	}
}

func TestPreloadOnPlainBinary(t *testing.T) {
	b := bin.New(arch.X64)
	lib, err := Preload(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := lib.TrapTarget(1); ok {
		t.Error("empty library resolved a trap")
	}
	if lib.TranslateRA(42) != 42 {
		t.Error("empty library translated an address")
	}
}

func TestPreloadRejectsCorruptMaps(t *testing.T) {
	b := rewrittenLike()
	b.Section(bin.SecRAMap).Data = []byte{1, 2, 3}
	if _, err := Preload(b); err == nil {
		t.Error("corrupt ra_map accepted")
	}
}
