package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/core"
	"icfgpatch/internal/emu"
	"icfgpatch/internal/workload"
)

// ppcInstrGap is Table 3's forced distance between the ppc image and
// .instr: beyond the ±32 MiB branch range, so long and multi-hop
// trampolines matter.
const ppcInstrGap = 40 << 20

// corpusProg is one generated binary of the cold corpus.
type corpusProg struct {
	name string
	raw  []byte
	text int    // .text bytes
	arg  uint64 // startup argument (command ID) for the oracle run
	cet  bool   // CFI build: the oracle enforces landing pads
	gap  uint64
	orig emu.Result
}

// buildCorpus generates and serialises every corpus binary: the 19
// SPEC-like programs, libcuda, and the CFI build of 600.perlbench_s on
// each arch; a stripped x64 libcuda (function discovery); libxul-x64,
// its CFI build, and docker-x64. libxul and docker do not assemble on
// ppc and a64 (their command-mix immediate exceeds the fixed-width
// ISAs' 16-bit range), so those arches are covered by libcuda and SPEC.
func buildCorpus() ([]*corpusProg, error) {
	var progs []*corpusProg
	add := func(name string, p *workload.Program, arg uint64, cet bool) {
		gap := uint64(0)
		if p.Binary.Arch == arch.PPC {
			gap = ppcInstrGap
		}
		progs = append(progs, &corpusProg{
			name: name, raw: p.Binary.Marshal(), text: len(p.Binary.Text().Data),
			arg: arg, cet: cet, gap: gap,
		})
	}
	for _, a := range []arch.Arch{arch.X64, arch.PPC, arch.A64} {
		suite, err := workload.SPECSuite(a, false)
		if err != nil {
			return nil, err
		}
		for _, p := range suite {
			add(p.Profile.Name+"-"+a.String(), p, 0, false)
		}
		cuda, err := workload.Libcuda(a)
		if err != nil {
			return nil, err
		}
		add("libcuda-"+a.String(), cuda, 0, false)
		if a == arch.X64 {
			stripped := *cuda
			stripped.Binary = cuda.Binary.Clone()
			stripped.Binary.Symbols = nil
			add("libcuda-stripped-x64", &stripped, 0, false)
		}
		perl, err := workload.SPECCFI(a, false, "600.perlbench_s")
		if err != nil {
			return nil, err
		}
		add("600.perlbench_s-cfi-"+a.String(), perl, 0, true)
	}
	for _, g := range []struct {
		name string
		gen  func(arch.Arch) (*workload.Program, error)
		cet  bool
	}{
		{"libxul-x64", workload.Libxul, false},
		{"libxul-cfi-x64", workload.LibxulCFI, true},
		{"docker-x64", workload.Docker, false},
	} {
		p, err := g.gen(arch.X64)
		if err != nil {
			return nil, err
		}
		add(g.name, p, workload.CmdLatencyBenchmark, g.cet)
	}
	return progs, nil
}

var corpusModes = []core.Mode{core.ModeDir, core.ModeJT, core.ModeFuncPtr}

// corpusCold is Table 3's setting as a closed loop with one caller:
// every cell (binary × mode) is rewritten cold, from serialised bytes
// to serialised bytes, in a seeded order that is reshuffled each pass.
// Whole passes run until the summed rewrite time reaches the window.
// The first pass's images are checked by the emulator against the
// original's output (CFI builds under landing-pad enforcement); later
// passes must reproduce them byte for byte.
func corpusCold(cfg runConfig) (*report, error) {
	rep := newReport(cfg)
	progs, setupS, err := medianSetup(setupReps, buildCorpus, func([]*corpusProg) {})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setupS

	// The original runs once, outside every timed interval.
	orc := &oracle{}
	for _, p := range progs {
		b, err := bin.Unmarshal(p.raw)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		p.orig, err = emulate(b, p.arg, p.cet)
		orc.wall += time.Since(start)
		orc.runs++
		if err != nil {
			return nil, fmt.Errorf("original %s faulted: %w", p.name, err)
		}
	}

	type cell struct {
		p    *corpusProg
		mode core.Mode
	}
	var cells []cell
	for _, p := range progs {
		for _, m := range corpusModes {
			cells = append(cells, cell{p, m})
		}
	}
	first := make([][sha256.Size]byte, len(cells)) // pass 0's verified images
	verified := make([]bool, len(cells))
	refused := make([]bool, len(cells))

	rng := rand.New(rand.NewSource(cfg.seed))
	heap := startHeapSampler()
	loop := newPassLoop(cfg)
	var (
		ratios, sizes, cov []float64
		nRefused           int
		counters           core.Metrics
	)
	for pass := 0; loop.next(); pass++ {
		tr := loop.tracer()
		var pw time.Duration
		for _, i := range rng.Perm(len(cells)) {
			c := cells[i]
			opts := core.Options{Mode: c.mode, Request: blockEmpty(), Verify: true, InstrGap: c.p.gap}
			r := rewrite(c.p.raw, core.AnalysisConfig{Mode: c.mode}, opts, tr)
			rep.attempted++
			pw += r.wall
			loop.op("", r.wall, c.p.text)
			label := fmt.Sprintf("corpus-cold %s/%s pass %d", c.p.name, c.mode, pass)
			if r.err != nil {
				if errors.Is(r.err, core.ErrImpreciseFuncPtrs) {
					if pass == 0 {
						refused[i] = true
						nRefused++
					} else if !refused[i] {
						rep.fail("%s: refused here but rewritten in pass 0", label)
					}
					continue
				}
				rep.fail("%s: %v", label, r.err)
				continue
			}
			sum := sha256.Sum256(r.out)
			if pass > 0 {
				if !verified[i] || sum != first[i] {
					rep.fail("%s: image differs from pass 0", label)
				}
				continue
			}
			var ratio float64
			err := loop.aside(heap, func() (err error) {
				ratio, err = orc.check(r.out, c.p.arg, c.p.cet, c.p.orig)
				return err
			})
			if err != nil {
				rep.fail("%s: %v", label, err)
				continue
			}
			first[i], verified[i] = sum, true
			ratios = append(ratios, ratio)
			sizes = append(sizes, 1+r.stats.SizeIncrease())
			cov = append(cov, r.stats.Coverage())
			counters.Add(r.metrics)
		}
		loop.done(pw)
	}
	rep.e2e["peak_heap_mb"] = heap.finish()
	if len(ratios) == 0 {
		return nil, errors.New("no cell verified")
	}

	loop.e2e(rep)
	rep.e2e["runtime_overhead_pct.geomean"] = (geomean(ratios) - 1) * 100
	rep.e2e["size_increase_pct.geomean"] = (geomean(sizes) - 1) * 100
	rep.e2e["coverage_pct.mean"] = mean(cov) * 100
	rep.layer["core.refused_share"] = float64(nRefused) / float64(len(cells))
	countLayers(rep.layer, counters)
	rep.layer["emu.run_ms.sum"] = ms(orc.wall)
	rep.layer["emu.cet_faults"] = float64(orc.cetFaults)
	if err := loop.traceLayers(rep, "corpus-cold", func(lt layerTimes, passes float64) {
		rewriteLayers(rep.layer, lt, passes)
	}); err != nil {
		return nil, err
	}
	fmt.Printf("corpus-cold: %d cells, %d passes, %d refused per pass, %d oracle runs\n",
		len(cells), loop.n, nRefused, orc.runs)
	return rep, nil
}

// countLayers fills the deterministic pipeline counters of the first
// pass (for a fixed seed they repeat exactly).
func countLayers(layer map[string]float64, m core.Metrics) {
	layer["core.analyze.funcs_reused"] = float64(m.FuncsReused)
	layer["core.analyze.funcs_recomputed"] = float64(m.FuncsRecomputed)
	layer["core.analyze.reuse_ratio"] = ratio(float64(m.FuncsReused), float64(m.FuncsReused+m.FuncsRecomputed))
	layer["core.patch.funcs_reused"] = float64(m.PatchFuncsReused)
	layer["core.patch.funcs_reencoded"] = float64(m.PatchFuncsReencoded)
	layer["core.patch.emit_reuse_ratio"] = ratio(float64(m.PatchFuncsReused), float64(m.PatchFuncsReused+m.PatchFuncsReencoded))
	for c, name := range map[arch.TrampolineClass]string{
		arch.TrampShort: "short", arch.TrampLong: "long", arch.TrampLongSpill: "long-spill",
		arch.TrampMulti: "multi-hop", arch.TrampTrap: "trap",
	} {
		layer["core.trampolines."+name] = float64(m.Trampolines[c])
	}
	layer["core.cloned_tables"] = float64(m.ClonedTables)
	layer["core.cfl_blocks"] = float64(m.CFLBlocks)
	layer["core.scratch_blocks"] = float64(m.ScratchBlocks)
}
