package icfgpatch_test

// Landing-pad evidence layer tests: the sound func-ptr acceptance the
// evidence layer buys on CFI builds, the CET enforcement of original and
// rewritten binaries, and the degradation contract — marker-less and
// corrupt-marker binaries take the historical conservative path exactly.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/asm"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/core"
	"icfgpatch/internal/emu"
	"icfgpatch/internal/rtlib"
	"icfgpatch/internal/workload"
)

// runCET executes a binary under CET enforcement: every indirect
// transfer must land on an arch.Mark or the emulator faults.
func runCET(t *testing.T, label string, img *bin.Binary, arg uint64) []byte {
	t.Helper()
	lib, err := rtlib.Preload(img)
	if err != nil {
		t.Fatalf("%s: preload: %v", label, err)
	}
	m, err := emu.Load(img, emu.Options{Runtime: lib, Arg: arg, MaxInstrs: 80_000_000, EnforceCET: true})
	if err != nil {
		t.Fatalf("%s: load: %v", label, err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("%s: run under CET enforcement: %v", label, err)
	}
	return res.Output
}

// TestSoundFuncPtrWithLandingPads is the acceptance case: the Go-like
// function-table workload fails ModeFuncPtr with ErrImprecise when built
// without markers, and rewrites soundly — running clean under CET
// enforcement — when built with landing pads, on all three ISAs.
func TestSoundFuncPtrWithLandingPads(t *testing.T) {
	for _, a := range []arch.Arch{arch.X64, arch.PPC, arch.A64} {
		plain, err := workload.GoTable(a)
		if err != nil {
			t.Fatalf("%s: generate: %v", a, err)
		}
		cfi, err := workload.GoTableCFI(a)
		if err != nil {
			t.Fatalf("%s: generate CFI: %v", a, err)
		}
		opts := core.Options{Mode: core.ModeFuncPtr, Request: blockEmpty()}
		if _, err := core.Rewrite(plain.Binary, opts); !errors.Is(err, core.ErrImpreciseFuncPtrs) {
			t.Fatalf("%s: plain build in func-ptr mode: got %v, want ErrImpreciseFuncPtrs", a, err)
		}
		// NoEvidence must preserve the refusal on the CFI build too.
		noEv := opts
		noEv.NoEvidence = true
		if _, err := core.Rewrite(cfi.Binary, noEv); !errors.Is(err, core.ErrImpreciseFuncPtrs) {
			t.Fatalf("%s: CFI build without evidence: got %v, want ErrImpreciseFuncPtrs", a, err)
		}
		res, err := core.Rewrite(cfi.Binary, opts)
		if err != nil {
			t.Fatalf("%s: CFI build in func-ptr mode: %v", a, err)
		}
		if !res.Stats.EvidenceTrusted {
			t.Fatalf("%s: marker evidence not trusted", a)
		}
		if res.Stats.EvidenceSkips == 0 {
			t.Fatalf("%s: no sound skips recorded; the vtable cell should have been skipped", a)
		}
		if res.Stats.MarkSites == 0 {
			t.Fatalf("%s: no marker sites recorded", a)
		}
		origOut := runCET(t, fmt.Sprintf("%s/original", a), cfi.Binary, 1)
		rewOut := runCET(t, fmt.Sprintf("%s/rewritten", a), res.Binary, 1)
		if !bytes.Equal(origOut, rewOut) {
			t.Fatalf("%s: rewritten output diverges under CET enforcement: %q vs %q", a, origOut, rewOut)
		}
	}
}

// TestRewrittenCFIBinaryPassesCET checks marker preservation through the
// plan/layout/emit and trampoline stages in every mode: a CFI build of
// the jump-table-heavy suite, rewritten in dir/jt/func-ptr modes, runs
// clean under CET enforcement — relocated landing pads stay first at
// their relocation-table claims, and trampolines installed over marked blocks
// keep the marker live ([marker][trampoline]).
func TestRewrittenCFIBinaryPassesCET(t *testing.T) {
	progFor := func(a arch.Arch) (*workload.Program, error) {
		if a == arch.X64 {
			// The dispatcher/destructor-heavy big app (X64-only: its
			// command mixing immediate exceeds the fixed-width ALU range).
			return workload.LibxulCFI(a)
		}
		return workload.SPECCFI(a, true, "600.perlbench_s")
	}
	for _, a := range []arch.Arch{arch.X64, arch.PPC, arch.A64} {
		prog, err := progFor(a)
		if err != nil {
			t.Fatalf("%s: generate: %v", a, err)
		}
		origOut := runCET(t, fmt.Sprintf("%s/original", a), prog.Binary, 1)
		for _, mode := range []core.Mode{core.ModeDir, core.ModeJT, core.ModeFuncPtr} {
			label := fmt.Sprintf("%s/%s", a, mode)
			res, err := core.Rewrite(prog.Binary, core.Options{Mode: mode, Request: blockEmpty()})
			if err != nil {
				t.Fatalf("%s: rewrite: %v", label, err)
			}
			out := runCET(t, label, res.Binary, 1)
			if !bytes.Equal(origOut, out) {
				t.Fatalf("%s: rewritten output diverges under CET enforcement", label)
			}
		}
	}
}

// TestMarkerlessByteIdentity is the degradation contract's first half: a
// binary with no markers must rewrite byte-for-byte identically whether
// the evidence layer is enabled or not, across three arches and three
// modes.
func TestMarkerlessByteIdentity(t *testing.T) {
	for _, a := range []arch.Arch{arch.X64, arch.PPC, arch.A64} {
		prog, err := workload.GoTable(a)
		if err != nil {
			t.Fatalf("%s: generate: %v", a, err)
		}
		suite, err := workload.SPECSuiteCached(a, true)
		if err != nil {
			t.Fatalf("%s: suite: %v", a, err)
		}
		for _, b := range []*bin.Binary{prog.Binary, suite[0].Binary} {
			for _, mode := range []core.Mode{core.ModeDir, core.ModeJT, core.ModeFuncPtr} {
				label := fmt.Sprintf("%s/%s", a, mode)
				opts := core.Options{Mode: mode, Request: blockEmpty()}
				withEv, errEv := core.Rewrite(b, opts)
				opts.NoEvidence = true
				without, errNo := core.Rewrite(b, opts)
				if (errEv == nil) != (errNo == nil) {
					t.Fatalf("%s: evidence changes the error outcome on a marker-less binary: %v vs %v", label, errEv, errNo)
				}
				if errEv != nil {
					continue // both refuse identically
				}
				if !bytes.Equal(withEv.Binary.Marshal(), without.Binary.Marshal()) {
					t.Fatalf("%s: marker-less rewrite differs with evidence enabled", label)
				}
			}
		}
	}
}

// TestCorruptMarkersDegrade is the degradation contract's second half: a
// CFI-claiming binary whose marker set fails verification — here a
// marker byte pattern reachable mid-instruction through a pointer cell —
// must degrade to the conservative analysis (refusal in func-ptr mode,
// identical bytes in dir/jt), never trust the markers and never error in
// a new way.
func TestCorruptMarkersDegrade(t *testing.T) {
	prog := corruptMarkerProgram(t)
	for _, mode := range []core.Mode{core.ModeDir, core.ModeJT} {
		opts := core.Options{Mode: mode, Request: blockEmpty()}
		withEv, err := core.Rewrite(prog, opts)
		if err != nil {
			t.Fatalf("%s: rewrite: %v", mode, err)
		}
		if withEv.Stats.EvidenceTrusted {
			t.Fatalf("%s: corrupt markers were trusted", mode)
		}
		opts.NoEvidence = true
		without, err := core.Rewrite(prog, opts)
		if err != nil {
			t.Fatalf("%s: rewrite without evidence: %v", mode, err)
		}
		if !bytes.Equal(withEv.Binary.Marshal(), without.Binary.Marshal()) {
			t.Fatalf("%s: corrupt-marker rewrite differs from conservative path", mode)
		}
	}
	_, err := core.Rewrite(prog, core.Options{Mode: core.ModeFuncPtr, Request: blockEmpty()})
	if !errors.Is(err, core.ErrImpreciseFuncPtrs) {
		t.Fatalf("func-ptr mode on corrupt markers: got %v, want the conservative ErrImpreciseFuncPtrs", err)
	}
}

// corruptMarkerProgram builds an X64 CFI-claiming binary whose marker
// evidence fails verification: a pointer cell targets the immediate byte
// of an add instruction whose value (0x1A) happens to be the marker
// opcode, so the "marker" the cell proves reachable sits mid-instruction.
func corruptMarkerProgram(t *testing.T) *bin.Binary {
	t.Helper()
	b := asm.New(arch.X64, false)
	b.SetCFI()
	v := b.Func("victim")
	// Encodes as [04 op rd rs1 1A 00 00 00]: byte +4 of the instruction
	// (entry+5 behind the prologue marker) is the marker opcode.
	v.OpI(arch.Add, arch.R3, arch.R1, 0x1A)
	v.Mov(arch.R0, arch.R3)
	v.Return()
	m := b.Func("main")
	m.SetFrame(32)
	m.Li(arch.R1, 3)
	m.CallF("victim")
	m.Print(arch.R0)
	m.Li(arch.R0, 0)
	m.Halt()
	b.SetEntry("main")
	// The cell "takes the address" of the mid-instruction pseudo-marker.
	b.FuncPtrGlobal("bad.cell", "victim", 5)
	img, _, err := b.Link()
	if err != nil {
		t.Fatalf("linking corrupt-marker program: %v", err)
	}
	if !img.CFI() {
		t.Fatal("program does not claim CFI")
	}
	return img
}
