package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/asm"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/workload"
)

// planPin is one pinned plan configuration: a workload binary, the
// request patched into it, and the SHA-256 of its laid-out plan dump.
type planPin struct {
	name   string
	binary func() (*bin.Binary, error)
	opts   Options
	// skewed derives a profile from the analysis (every third function
	// hot), engaging variant bodies, fastReloc and tkVarEntry items.
	skewed bool
	// mustShow lists substrings the dump must contain, so each pin
	// provably exercises the feature it was chosen for.
	mustShow []string
	digest   string
}

// program adapts a workload generator to a pin's binary source.
func program(gen func() (*workload.Program, error)) func() (*bin.Binary, error) {
	return func() (*bin.Binary, error) {
		p, err := gen()
		if err != nil {
			return nil, err
		}
		return p.Binary, nil
	}
}

func specBinary(a arch.Arch, i int) func() (*bin.Binary, error) {
	return func() (*bin.Binary, error) {
		s, err := workload.SPECSuiteCached(a, false)
		if err != nil {
			return nil, err
		}
		return s[i].Binary, nil
	}
}

// codeImmBinary materialises a function pointer in code (movz/movk on
// non-PIE a64); no generated workload has code-immediate pointer sites.
func codeImmBinary() (*bin.Binary, error) {
	b := asm.New(arch.A64, false)
	callee := b.Func("callee")
	callee.OpI(arch.Add, arch.R0, arch.R1, 1)
	callee.Return()
	m := b.Func("main")
	m.SetFrame(16)
	m.LoadGlobalAddr(arch.R9, "callee")
	m.I(arch.Instr{Kind: arch.CallInd, Rs1: arch.R9})
	m.Print(arch.R0)
	m.Halt()
	b.SetEntry("main")
	img, _, err := b.Link()
	return img, err
}

// partialFuncs names every other function of a SPEC binary, so calls
// from relocated code reach unrelocated callees in the original text.
func partialFuncs(a arch.Arch, i int) []string {
	s, err := workload.SPECSuiteCached(a, false)
	if err != nil {
		return nil
	}
	var names []string
	for k, sym := range s[i].Binary.FuncSymbols() {
		if k%2 == 0 {
			names = append(names, sym.Name)
		}
	}
	return names
}

// planPins covers the plan stage's classification and layout paths:
// cloned jump tables on both variable- and fixed-width code, far-branch
// expansion under a forced .instr gap, pointer immediates and landing
// pads, block and function reordering, and profile-guided variants.
func planPins() []planPin {
	counter := instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadCounter}
	empty := instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty}
	partial := counter
	partial.Funcs = partialFuncs(arch.PPC, 0)
	return []planPin{
		{
			name:     "jt/libxul-x64",
			binary:   program(func() (*workload.Program, error) { return workload.LibxulCached(arch.X64) }),
			opts:     Options{Mode: ModeJT, Request: counter},
			mustShow: []string{"(clone)"},
			digest:   "e239cae0cf8fd5fb2649db69e11d16b8fa1bb80175605e95ae1bbf4f0e075de7",
		},
		{
			name:     "jt/libcuda-a64",
			binary:   program(func() (*workload.Program, error) { return workload.LibcudaCached(arch.A64) }),
			opts:     Options{Mode: ModeJT, Request: empty},
			mustShow: []string{"(clone)"},
			digest:   "9acb9cc5c42c79fdda66f9af036447f40a37f11756319c160f465dc60ced1625",
		},
		{
			name: "jt/spec-ppc-gap",
			// A 40 MiB gap puts unrelocated callees beyond ppc64le's ±32 MiB
			// branch: their calls grow veneers, counter leas grow pairs.
			binary:   specBinary(arch.PPC, 0),
			opts:     Options{Mode: ModeJT, Request: partial, InstrGap: 40 << 20},
			mustShow: []string{"expand=far-call", "expand=lea-pair"},
			digest:   "c5b180045afe1e44f4efc88b8537e357dc7f8d1e5e93fd354e7c26a660f6272f",
		},
		{
			name: "func-ptr/perlbench-cfi-x64",
			binary: program(func() (*workload.Program, error) {
				return workload.SPECCFI(arch.X64, false, "600.perlbench_s")
			}),
			opts:     Options{Mode: ModeFuncPtr, Request: empty},
			mustShow: []string{"endbr"},
			digest:   "776df8c9894654f1d7034d8ce94bab172a5e38f6d999bd1321986baa36c69841",
		},
		{
			name:     "func-ptr/code-imm-a64",
			binary:   codeImmBinary,
			opts:     Options{Mode: ModeFuncPtr, Request: counter},
			mustShow: []string{"imm-hi16 -> "},
			digest:   "b039e2796684e7dcfb949edc3525bfebd310b77d8d341425248041ddf70f6eef",
		},
		{
			name:     "jt/spec-a64-reversed",
			binary:   specBinary(arch.A64, 1),
			opts:     Options{Mode: ModeJT, Request: counter, Variant: Variant{ReverseBlocks: true, ReverseFuncs: true}},
			mustShow: []string{"(func-base)"},
			digest:   "a5c2b54f000ace2aaa5803c3fddc7ee11a7793202197cf1c97de85c69fd64ab2",
		},
		{
			name:     "jt/spec-x64-profile",
			binary:   specBinary(arch.X64, 0),
			opts:     Options{Mode: ModeJT, Request: counter},
			skewed:   true,
			mustShow: []string{"(var-entry)", "(local)", "tier=hot"},
			digest:   "d9b2c7e202891114841b3d96b83fef98145219afd7d87f4700f9180ec102b677",
		},
	}
}

// setup analyses the pin's binary and returns the analysis and the
// final options (with the skewed profile attached when asked for).
func (pp planPin) setup(t *testing.T) (*Analysis, Options) {
	t.Helper()
	img, err := pp.binary()
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(img, AnalysisConfig{Mode: pp.opts.Mode, Variant: pp.opts.Variant})
	if err != nil {
		t.Fatal(err)
	}
	opts := pp.opts
	if pp.skewed {
		heat := map[uint64]uint64{}
		for i, f := range an.Graph.Funcs {
			heat[f.Entry] = 1
			if i%3 == 0 {
				heat[f.Entry] = 1000
			}
		}
		opts.Profile = an.ProfileFromHeat("skew", heat)
	}
	return an, opts
}

// TestPlanDumpDigests pins the laid-out plan, not just the bytes: the
// dump prints every item's target kind, resolved target and expansion,
// every unit start and every trampoline target, so a classification
// slip that happens to leave the output bytes equal still fails here.
func TestPlanDumpDigests(t *testing.T) {
	for _, pp := range planPins() {
		t.Run(pp.name, func(t *testing.T) {
			an, opts := pp.setup(t)
			p, err := an.PlanFor(opts)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			p.Dump(&buf)
			for _, s := range pp.mustShow {
				if !strings.Contains(buf.String(), s) {
					t.Errorf("plan dump lacks %q: the pin no longer exercises it", s)
				}
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != pp.digest {
				t.Errorf("plan dump digest %s, want %s", got, pp.digest)
			}
		})
	}
}

// firstClaims rebuilds the original-address → relocated-address map
// from a laid-out plan the way a map-based layout would: walk units in
// layout order and their full-body items in slab order, and keep each
// address's first claim.
func firstClaims(p *PatchPlan) map[uint64]uint64 {
	m := map[uint64]uint64{}
	for _, u := range p.units {
		for _, it := range u.items[:u.fastStart] {
			if it.claim == 0 {
				continue
			}
			if _, dup := m[it.claim]; !dup {
				m[it.claim] = it.newAddr
			}
		}
	}
	return m
}

// TestRelocatedMatchesFirstClaims checks Result.Relocated against the
// first-claim map on every original instruction address of every pin.
func TestRelocatedMatchesFirstClaims(t *testing.T) {
	for _, pp := range planPins() {
		t.Run(pp.name, func(t *testing.T) {
			an, opts := pp.setup(t)
			p, err := an.PlanFor(opts)
			if err != nil {
				t.Fatal(err)
			}
			want := firstClaims(p)
			res, err := an.Patch(opts)
			if err != nil {
				t.Fatal(err)
			}
			checked := 0
			for _, f := range an.Graph.Funcs {
				for _, blk := range f.Blocks {
					for _, ins := range blk.Instrs {
						got, ok := res.Relocated(ins.Addr)
						w, wok := want[ins.Addr]
						if ok != wok || got != w {
							t.Fatalf("%s %#x: Relocated = %#x,%t, first claim %#x,%t", f.Name, ins.Addr, got, ok, w, wok)
						}
						checked++
					}
				}
			}
			for a, w := range want {
				if got, ok := res.Relocated(a); !ok || got != w {
					t.Fatalf("claim %#x: Relocated = %#x,%t, want %#x", a, got, ok, w)
				}
			}
			if checked == 0 || len(want) == 0 {
				t.Fatal("pin relocated nothing")
			}
		})
	}
}
