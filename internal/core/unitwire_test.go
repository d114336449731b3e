package core_test

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"strings"
	"testing"

	"icfgpatch/internal/analysis"
	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/cfg"
	"icfgpatch/internal/core"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/workload"
)

// TestUnitWireRoundTrip is the peer warm path's correctness core, with
// the network removed: units computed by one "node" (an Analyze into a
// unit store), shipped through the wire codec, and seeded into a second
// node's empty store must let that node's Analyze reuse every function
// — FuncsRecomputed == 0 — and patch to bytes identical to a cold
// rewrite. Covered per arch because the graphs being serialised differ
// structurally (variable-length vs fixed-width ISAs, in-text tables on
// PPC).
func TestUnitWireRoundTrip(t *testing.T) {
	profile := workload.Profile{
		Name: "unitwire", Seed: 11, Lang: "c++",
		Funcs: 16, SwitchFrac: 0.4, SpillFrac: 0.2,
		TinyFrac: 0.1, Exceptions: true, StackCalls: true, Iters: 4,
	}
	req := instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty}

	for _, a := range []arch.Arch{arch.X64, arch.PPC, arch.A64} {
		t.Run(a.String(), func(t *testing.T) {
			p, err := workload.Generate(a, false, profile)
			if err != nil {
				t.Fatal(err)
			}
			b := p.Binary
			opts := core.Options{Mode: core.ModeJT, Request: req}

			cold, err := core.Rewrite(b, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := cold.Binary.Marshal()

			// Node A: cold analyze, units deposited.
			unitsA := core.NewUnitStore(0)
			anA, err := core.Analyze(b, core.AnalysisConfig{Mode: core.ModeJT, Units: unitsA})
			if err != nil {
				t.Fatal(err)
			}

			// The wire: marshal A's units, unmarshal into B's world.
			data, err := core.MarshalUnits(anA.FuncUnits)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := core.UnmarshalUnits(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(decoded) != len(anA.FuncUnits) {
				t.Fatalf("round trip lost units: %d -> %d", len(anA.FuncUnits), len(decoded))
			}

			// Node B: empty store seeded from the wire; analysis must be
			// a pure delta.
			unitsB := core.NewUnitStore(0)
			if n := unitsB.Seed(decoded); n != len(decoded) {
				t.Fatalf("seeded %d of %d units", n, len(decoded))
			}
			if st := unitsB.Stats(); st.PeerHits != uint64(len(decoded)) {
				t.Fatalf("Stats.PeerHits = %d, want %d", st.PeerHits, len(decoded))
			}
			anB, err := core.Analyze(b, core.AnalysisConfig{Mode: core.ModeJT, Units: unitsB})
			if err != nil {
				t.Fatal(err)
			}
			if anB.Metrics.FuncsRecomputed != 0 {
				t.Fatalf("seeded analysis recomputed %d funcs (%v), want 0",
					anB.Metrics.FuncsRecomputed, anB.RecomputedNames)
			}
			if anB.Metrics.FuncsReused != len(decoded) {
				t.Fatalf("seeded analysis reused %d of %d units", anB.Metrics.FuncsReused, len(decoded))
			}

			res, err := anB.Patch(opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Binary.Marshal(); !bytes.Equal(got, want) {
				t.Fatalf("peer-seeded rewrite diverged from cold: %d vs %d bytes", len(got), len(want))
			}
		})
	}
}

// TestUnitWireGarbage pins the decoder's rejection paths: truncated or
// arbitrary bytes must error, never panic.
func TestUnitWireGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, {}, {0x01}, []byte("not a gob stream"), bytes.Repeat([]byte{0xff}, 64)} {
		if us, err := core.UnmarshalUnits(data); err == nil && len(us) > 0 {
			t.Errorf("UnmarshalUnits(%d garbage bytes) decoded %d units without error", len(data), len(us))
		}
	}
}

// specUnits analyses the first x64 SPEC-like benchmark into a unit
// store and returns the binary, its cold jt rewrite and the units.
func specUnits(t *testing.T) (*bin.Binary, core.Options, []byte, []*core.FuncUnit) {
	t.Helper()
	s, err := workload.SPECSuiteCached(arch.X64, false)
	if err != nil {
		t.Fatal(err)
	}
	b := s[0].Binary
	opts := core.Options{Mode: core.ModeJT, Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty}}
	cold, err := core.Rewrite(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.Analyze(b, core.AnalysisConfig{Mode: core.ModeJT, Units: core.NewUnitStore(0)})
	if err != nil {
		t.Fatal(err)
	}
	return b, opts, cold.Binary.Marshal(), an.FuncUnits
}

// withBrokenGraph returns units with the first unit that has at least
// two blocks, each with successors and predecessors where needed,
// replaced by a copy whose graph break has damaged. The originals are
// left untouched.
func withBrokenGraph(t *testing.T, us []*core.FuncUnit, brk func(f *cfg.Func)) []*core.FuncUnit {
	t.Helper()
	out := append([]*core.FuncUnit(nil), us...)
	for i, u := range out {
		if len(u.Fn.Blocks) < 2 || len(u.Fn.Blocks[0].Succs) == 0 || len(u.Fn.Blocks[0].Instrs) < 2 {
			continue
		}
		fc := *u.Fn
		fc.Blocks = make([]*cfg.Block, len(u.Fn.Blocks))
		for k, blk := range u.Fn.Blocks {
			bc := *blk
			bc.Instrs = append([]arch.Instr(nil), blk.Instrs...)
			bc.Succs = append([]cfg.Edge(nil), blk.Succs...)
			bc.Preds = append([]uint64(nil), blk.Preds...)
			fc.Blocks[k] = &bc
		}
		brk(&fc)
		out[i] = &core.FuncUnit{Key: u.Key, Name: u.Name, Fn: &fc, Deps: u.Deps, Reads: u.Reads}
		return out
	}
	t.Fatal("no unit with a multi-instruction entry block and successors")
	return nil
}

// TestUnmarshalUnitsRejectsMalformedGraphs: every structural defect a
// peer's graph can carry fails the payload, so the receiving node
// recomputes instead of patching from it.
func TestUnmarshalUnitsRejectsMalformedGraphs(t *testing.T) {
	_, _, _, units := specUnits(t)
	defects := []struct {
		name string
		brk  func(f *cfg.Func)
	}{
		{"empty block", func(f *cfg.Func) { f.Blocks[0].Instrs = nil }},
		{"blocks out of order", func(f *cfg.Func) { f.Blocks[0], f.Blocks[1] = f.Blocks[1], f.Blocks[0] }},
		{"duplicate block", func(f *cfg.Func) { f.Blocks[1] = f.Blocks[0] }},
		{"block before entry", func(f *cfg.Func) { f.Entry = f.Blocks[0].Start + 1 }},
		{"block past end", func(f *cfg.Func) { f.End = f.Blocks[len(f.Blocks)-1].End - 1 }},
		{"start off its first instruction", func(f *cfg.Func) { f.Blocks[0].Start++ }},
		{"end off its last instruction", func(f *cfg.Func) { f.Blocks[0].End++ }},
		{"hole between instructions", func(f *cfg.Func) {
			f.Blocks[0].Instrs = append(f.Blocks[0].Instrs[:1:1], f.Blocks[0].Instrs[2:]...)
		}},
		{"successor not a block start", func(f *cfg.Func) { f.Blocks[0].Succs[0].To++ }},
		{"predecessor not a block start", func(f *cfg.Func) { f.Blocks[1].Preds = append(f.Blocks[1].Preds, f.Blocks[1].Start+1) }},
	}
	for _, d := range defects {
		t.Run(d.name, func(t *testing.T) {
			data, err := core.MarshalUnits(withBrokenGraph(t, units, d.brk))
			if err != nil {
				t.Fatal(err)
			}
			if us, err := core.UnmarshalUnits(data); err == nil {
				t.Fatalf("UnmarshalUnits accepted %d units with a damaged graph", len(us))
			} else if !strings.Contains(err.Error(), "cfg: ") {
				t.Fatalf("error %q does not come from the graph check", err)
			}
		})
	}
}

// TestPeerUnitWithEmptyBlockRecomputes follows a peer payload whose
// unit has an empty entry block through the node's warm path: decode,
// seed the units that decoded, Analyze, Patch. Without the graph check
// the unit passed reuse validation (which replays only dependencies and
// reads) and Patch panicked in Block.Last; now the payload is refused,
// every function is recomputed and the bytes equal a cold rewrite.
func TestPeerUnitWithEmptyBlockRecomputes(t *testing.T) {
	b, opts, want, units := specUnits(t)
	data, err := core.MarshalUnits(withBrokenGraph(t, units, func(f *cfg.Func) { f.Blocks[0].Instrs = nil }))
	if err != nil {
		t.Fatal(err)
	}
	store := core.NewUnitStore(0)
	if us, err := core.UnmarshalUnits(data); err == nil {
		store.Seed(us)
	}
	an, err := core.Analyze(b, core.AnalysisConfig{Mode: core.ModeJT, Units: store})
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Patch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Binary.Marshal(); !bytes.Equal(got, want) {
		t.Fatalf("rewrite after a malformed peer payload diverged from cold: %d vs %d bytes", len(got), len(want))
	}
}

// Unit wire shapes of nodes built before identities became 32-byte
// arrays: the same fields, with hex-string IDs and read sums.
type (
	oldUnitKey struct {
		ID      string
		Arch    arch.Arch
		Mode    core.Mode
		Variant core.Variant
	}
	oldDep      struct{ Name, ID string }
	oldReadSpan struct {
		Addr, Len uint64
		Sum       string
	}
	oldRecording struct {
		Reads  []oldReadSpan
		Fails  []analysis.ReadFail
		Bounds []analysis.BoundQuery
	}
	oldWireUnit struct {
		Key   oldUnitKey
		Name  string
		Fn    *cfg.Func
		Deps  []oldDep
		Reads *oldRecording
	}
)

// TestOldPeerUnitsRecompute pins the mixed-version cluster behaviour:
// unit identities changed from hex strings to 32-byte arrays, so a
// payload from a node running the old codec does not decode. The node
// seeds nothing, recomputes every function and still patches the cold
// bytes.
func TestOldPeerUnitsRecompute(t *testing.T) {
	b, opts, want, units := specUnits(t)
	var old []oldWireUnit
	for _, u := range units {
		fc := *u.Fn
		fc.Err = nil
		fc.IndirectJumps = append([]cfg.IndirectJump(nil), fc.IndirectJumps...)
		for i := range fc.IndirectJumps {
			fc.IndirectJumps[i].Err = nil
		}
		w := oldWireUnit{Key: oldUnitKey{ID: hex.EncodeToString(u.Key.ID[:]), Arch: u.Key.Arch, Mode: u.Key.Mode, Variant: u.Key.Variant},
			Name: u.Name, Fn: &fc, Reads: &oldRecording{Fails: u.Reads.Fails, Bounds: u.Reads.Bounds}}
		for _, d := range u.Deps {
			w.Deps = append(w.Deps, oldDep{Name: d.Name, ID: hex.EncodeToString(d.ID[:])})
		}
		for _, r := range u.Reads.Reads {
			w.Reads.Reads = append(w.Reads.Reads, oldReadSpan{Addr: r.Addr, Len: r.Len, Sum: hex.EncodeToString(r.Sum[:])})
		}
		old = append(old, w)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	store := core.NewUnitStore(0)
	if us, err := core.UnmarshalUnits(buf.Bytes()); err == nil {
		t.Fatalf("an old node's payload decoded into %d units", len(us))
	} else if !strings.Contains(err.Error(), "[32]uint8") {
		t.Fatalf("error %q is not the identity type mismatch", err)
	}
	an, err := core.Analyze(b, core.AnalysisConfig{Mode: core.ModeJT, Units: store})
	if err != nil {
		t.Fatal(err)
	}
	if an.Metrics.FuncsReused != 0 || an.Metrics.FuncsRecomputed != len(units) {
		t.Fatalf("delta = %d reused, %d recomputed; want all %d recomputed", an.Metrics.FuncsReused, an.Metrics.FuncsRecomputed, len(units))
	}
	res, err := an.Patch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Binary.Marshal(), want) {
		t.Fatal("rewrite after an old node's payload diverged from cold")
	}
}
