package cfg_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"icfgpatch/internal/analysis"
	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/cfg"
	"icfgpatch/internal/workload"
)

// cfgPin is one pinned CFG build: a binary, how its graph is built, and
// the SHA-256 of the graph's canonical dump.
type cfgPin struct {
	name  string
	build func() (*cfg.Graph, error)
	// mustShow lists substrings the dump must contain, so each pin
	// provably exercises the feature it was chosen for.
	mustShow []string
	digest   string
}

// withTables builds a binary's graph with the jump-table resolver; when
// evidence is set and the binary's landing-pad evidence is trusted, the
// resolver bounds tables by it, as func-ptr mode does.
func withTables(bin func() (*bin.Binary, error), evidence bool) func() (*cfg.Graph, error) {
	return func() (*cfg.Graph, error) {
		b, err := bin()
		if err != nil {
			return nil, err
		}
		res, ev, _ := analysis.SweepFuncs(b, analysis.SweepInput{Funcs: b.FuncSymbols(), Evidence: evidence})
		if evidence && ev.Trusted {
			res.UseMarks(ev.Marks)
		}
		return cfg.BuildGraph(b, res)
	}
}

func specGCC(a arch.Arch) func() (*bin.Binary, error) {
	return func() (*bin.Binary, error) {
		s, err := workload.SPECSuiteCached(a, false)
		if err != nil {
			return nil, err
		}
		for _, p := range s {
			if p.Profile.Name == "602.gcc_s" {
				return p.Binary, nil
			}
		}
		return nil, errors.New("no 602.gcc_s in the SPEC suite")
	}
}

func program(gen func() (*workload.Program, error)) func() (*bin.Binary, error) {
	return func() (*bin.Binary, error) {
		p, err := gen()
		if err != nil {
			return nil, err
		}
		return p.Binary, nil
	}
}

func cfgPins() []cfgPin {
	return []cfgPin{
		{
			name:     "spec-gcc-x64",
			build:    withTables(specGCC(arch.X64), false),
			mustShow: []string{"/indirect", "/callfall", "/cond"},
			digest:   "370b28267addb52f51d01e5129c2c00857d0552bf0498c57c994c4a94d30ecb5",
		},
		{
			name:     "spec-gcc-ppc",
			build:    withTables(specGCC(arch.PPC), false),
			mustShow: []string{"intext=true", "data [0x", "tail=true"},
			digest:   "6b4e1ac1dfd4694b6802342d259cd0c4924056bdf5b3c6b3da1eb7f969db4cc6",
		},
		{
			name:     "spec-gcc-a64",
			build:    withTables(specGCC(arch.A64), false),
			mustShow: []string{"/indirect", "err=cfg: "},
			digest:   "5d46864f0c3374ae4d507bbef49067878f5f13ac7f0b36abfcdd92a5d5747f8d",
		},
		{
			name: "libcuda-a64-stripped",
			build: func() (*cfg.Graph, error) {
				p, err := workload.LibcudaCached(arch.A64)
				if err != nil {
					return nil, err
				}
				stripped := p.Binary.Clone()
				stripped.Symbols = nil
				ds, err := cfg.DiscoverFunctions(stripped)
				if err != nil {
					return nil, err
				}
				res, _, _ := analysis.SweepFuncs(stripped, analysis.SweepInput{Funcs: ds})
				return cfg.BuildGraph(stripped, res)
			},
			mustShow: []string{"func fn_", "nop-only=false"},
			digest:   "dd4723fa7b57ed609741b38bb097808a892c5e2d80eb16f6abf93f7b3de502e0",
		},
		{
			name:     "libxul-x64",
			build:    withTables(program(func() (*workload.Program, error) { return workload.LibxulCached(arch.X64) }), false),
			mustShow: []string{"/indirect", "pads 0x"},
			digest:   "daa4bb71366feeb58c0d04390a141bb56f2d1a2054de9b618f41f050c00824f7",
		},
		{
			name: "perlbench-cfi-x64-evidence",
			build: withTables(program(func() (*workload.Program, error) {
				return workload.SPECCFI(arch.X64, false, "600.perlbench_s")
			}), true),
			mustShow: []string{"/indirect", "tail=true"},
			digest:   "5bdd61c6ff231dc66cf15c85af98d396e17458361f04f2cef6a1e6b8fb332c62",
		},
		{
			name: "perlbench-cfi-ppc-evidence",
			build: withTables(program(func() (*workload.Program, error) {
				return workload.SPECCFI(arch.PPC, false, "600.perlbench_s")
			}), true),
			mustShow: []string{"intext=true", "data [0x"},
			digest:   "5c1f108ae0a4a4e8f2d78ea2eb3d4c5e7709f7da1a232423647840c2e502acf5",
		},
		{
			name:     "mark-bounded-x64",
			build:    withTables(cfg.MarkBoundedX64, true),
			mustShow: []string{"mark-bounded=true"},
			digest:   "8982021cbed2ebc3458d6e75c7ed1a6cb4f4e196fe276bd9cab052173b13bf40",
		},
		{
			name:     "interleaved-x64",
			build:    func() (*cfg.Graph, error) { return cfg.BuildGraph(cfg.InterleavedX64Binary(), nil) },
			mustShow: []string{"block [0x10007,0x10011)", "block [0x1000a,0x10011)"},
			digest:   "c29215aac0adb6927b4f11b8d1803f12fcad9e3d7d63ef4e83e709d19da2107f",
		},
	}
}

// TestCFGDumpDigests pins every pinned graph's canonical dump: block
// bounds, instruction addresses, edges, predecessors, jump tables,
// data ranges and gaps. A construction change that alters any of them
// fails here even when the rewritten bytes happen not to move.
func TestCFGDumpDigests(t *testing.T) {
	for _, cp := range cfgPins() {
		t.Run(cp.name, func(t *testing.T) {
			g, err := cp.build()
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range g.Funcs {
				if err := f.Check(); err != nil {
					t.Error(err)
				}
			}
			var buf bytes.Buffer
			cfg.DumpGraph(&buf, g)
			for _, s := range cp.mustShow {
				if !strings.Contains(buf.String(), s) {
					t.Errorf("cfg dump lacks %q: the pin no longer exercises it", s)
				}
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != cp.digest {
				t.Errorf("cfg dump digest %s, want %s", got, cp.digest)
			}
		})
	}
}

// TestCheckRejectsMalformedGraphs pins Check's rejection paths, so the
// oracle the fuzz and pin tests hold built graphs to cannot go blind:
// each structural defect, applied to a copy of a built function, fails
// Check with a cfg error, while the undamaged copy passes.
func TestCheckRejectsMalformedGraphs(t *testing.T) {
	g, err := withTables(specGCC(arch.X64), false)()
	if err != nil {
		t.Fatal(err)
	}
	var orig *cfg.Func
	for _, f := range g.Funcs {
		if len(f.Blocks) >= 2 && len(f.Blocks[0].Succs) > 0 && len(f.Blocks[0].Instrs) >= 2 {
			orig = f
			break
		}
	}
	if orig == nil {
		t.Fatal("no function with a multi-instruction entry block and successors")
	}
	// clone copies orig deeply enough that damaging a block leaves the
	// built graph untouched.
	clone := func() *cfg.Func {
		fc := *orig
		fc.Blocks = make([]*cfg.Block, len(orig.Blocks))
		for k, blk := range orig.Blocks {
			bc := *blk
			bc.Instrs = append([]arch.Instr(nil), blk.Instrs...)
			bc.Succs = append([]cfg.Edge(nil), blk.Succs...)
			bc.Preds = append([]uint64(nil), blk.Preds...)
			fc.Blocks[k] = &bc
		}
		return &fc
	}
	if err := clone().Check(); err != nil {
		t.Fatalf("undamaged copy fails Check: %v", err)
	}
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
			f := clone()
			d.brk(f)
			if err := f.Check(); err == nil {
				t.Fatal("Check accepted a damaged graph")
			} else if !strings.HasPrefix(err.Error(), "cfg: ") {
				t.Fatalf("error %q does not come from the graph check", err)
			}
		})
	}
}
