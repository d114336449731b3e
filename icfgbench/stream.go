package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/core"
	"icfgpatch/internal/workload"
)

// streamChain is one program's release history: its latest version and
// the rewrite settings every version uses.
type streamChain struct {
	name string
	// base is the first version and baseOut its rewrite through the
	// unit store in set-up.
	base    *bin.Binary
	baseOut []byte
	cur     *bin.Binary
	arg     uint64
	mode    core.Mode
}

// streamPerPass is how many successive versions of each chain one pass
// rewrites: the chains get equal shares of the stream.
const streamPerPass = 20

type streamState struct {
	chains []*streamChain
	units  *core.UnitStore
}

// setupStream generates the two base programs and rewrites each once
// through a fresh process-lifetime unit store, so the stream starts
// from a warm store and warm emit caches.
func setupStream() (*streamState, error) {
	st := &streamState{units: core.NewUnitStore(0)}
	for _, g := range []struct {
		name string
		gen  func(arch.Arch) (*workload.Program, error)
		a    arch.Arch
		arg  uint64
	}{
		{"libxul-x64", workload.Libxul, arch.X64, workload.CmdLatencyBenchmark},
		{"libcuda-a64", workload.Libcuda, arch.A64, 0},
	} {
		p, err := g.gen(g.a)
		if err != nil {
			return nil, err
		}
		c := &streamChain{name: g.name, base: p.Binary, cur: p.Binary, arg: g.arg, mode: core.ModeJT}
		r := rewrite(p.Binary.Marshal(), c.acfg(st.units), c.opts(), nil)
		if r.err != nil {
			return nil, fmt.Errorf("warming %s: %w", g.name, r.err)
		}
		c.baseOut = r.out
		st.chains = append(st.chains, c)
	}
	return st, nil
}

func (c *streamChain) acfg(units *core.UnitStore) core.AnalysisConfig {
	return core.AnalysisConfig{Mode: c.mode, Units: units}
}

func (c *streamChain) opts() core.Options {
	return core.Options{Mode: c.mode, Request: blockEmpty(), Verify: true}
}

// versionStream is a closed loop with one caller rewriting seeded
// chains of point releases (workload.MutateVersion, one to four
// functions per step) of libxul-x64 and libcuda-a64, each version from
// bytes in to bytes out through one process-lifetime unit store. The
// seed picks the interleaving, the step sizes and the mutation sites.
// Every output must be byte-identical to a cold core.Rewrite of the
// same version, computed outside the timed interval; every fifth version
// of the first pass also runs under the emulator. The image metrics are
// read on the chains' base versions, rewritten through the unit store in
// set-up, so they do not depend on which functions the seed mutates.
func versionStream(cfg runConfig) (*report, error) {
	rep := newReport(cfg)
	st, setupS, err := medianSetup(setupReps, setupStream, func(*streamState) {})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setupS

	rng := rand.New(rand.NewSource(cfg.seed))
	heap := startHeapSampler()
	loop := newPassLoop(cfg)
	orc := &oracle{}
	var (
		sizes, cov []float64
		counters   core.Metrics
		steps      = make([]int, len(st.chains))
	)
	for pass := 0; loop.next(); pass++ {
		tr := loop.tracer()
		var slots []int
		for ci := range st.chains {
			for i := 0; i < streamPerPass; i++ {
				slots = append(slots, ci)
			}
		}
		rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		var pw time.Duration
		for _, ci := range slots {
			c := st.chains[ci]
			k := 1 + rng.Intn(4)
			v, _, err := workload.MutateVersion(c.cur, k, rng.Int63())
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			c.cur = v
			steps[ci]++

			r := rewrite(v.Marshal(), c.acfg(st.units), c.opts(), tr)
			rep.attempted++
			pw += r.wall
			loop.op(c.name, r.wall, len(v.Text().Data))
			label := fmt.Sprintf("version-stream %s v%d", c.name, steps[ci])
			if r.err != nil {
				rep.fail("%s: %v", label, r.err)
				continue
			}
			emulateIt := pass == 0 && steps[ci]%5 == 0
			if err := loop.aside(heap, func() error { return checkStream(r.out, v, c, orc, emulateIt) }); err != nil {
				rep.fail("%s: %v", label, err)
				continue
			}
			if pass == 0 {
				sizes = append(sizes, 1+r.stats.SizeIncrease())
				cov = append(cov, r.stats.Coverage())
				counters.Add(r.metrics)
			}
		}
		loop.done(pw)
	}
	rep.e2e["peak_heap_mb"] = heap.finish()

	loop.e2e(rep)
	var ratios []float64
	for _, c := range st.chains {
		start := time.Now()
		orig, err := emulate(c.base, c.arg, false)
		orc.wall += time.Since(start)
		orc.runs++
		if err != nil {
			return nil, fmt.Errorf("%s base faulted: %w", c.name, err)
		}
		r, err := orc.check(c.baseOut, c.arg, false, orig)
		if err != nil {
			rep.fail("version-stream %s base: %v", c.name, err)
			continue
		}
		ratios = append(ratios, r)
	}
	rep.e2e["runtime_overhead_pct.geomean"] = (geomean(ratios) - 1) * 100
	rep.e2e["size_increase_pct.geomean"] = (geomean(sizes) - 1) * 100
	rep.e2e["coverage_pct.mean"] = mean(cov) * 100

	countLayers(rep.layer, counters)
	rep.layer["emu.run_ms.sum"] = ms(orc.wall)
	rep.layer["emu.cet_faults"] = float64(orc.cetFaults)
	if err := loop.traceLayers(rep, "version-stream", func(lt layerTimes, passes float64) {
		rewriteLayers(rep.layer, lt, passes)
	}); err != nil {
		return nil, err
	}
	fmt.Printf("version-stream: %d passes, %d delta rewrites, %d oracle emulations, unit store %d functions\n",
		loop.n, loop.ops, orc.runs, st.units.Len())
	return rep, nil
}

// checkStream compares a delta output with a cold rewrite of the same
// version and, when emulateIt is set, runs both the version and its
// rewrite under the emulator.
func checkStream(out []byte, v *bin.Binary, c *streamChain, orc *oracle, emulateIt bool) error {
	cold, err := core.Rewrite(v, c.opts())
	if err != nil {
		return fmt.Errorf("cold reference rewrite: %w", err)
	}
	ref := cold.Binary.Marshal()
	cold.Recycle()
	if !bytes.Equal(out, ref) {
		return fmt.Errorf("delta output differs from a cold rewrite")
	}
	if !emulateIt {
		return nil
	}
	start := time.Now()
	orig, err := emulate(v, c.arg, false)
	orc.wall += time.Since(start)
	orc.runs++
	if err != nil {
		return fmt.Errorf("version faulted before rewriting: %w", err)
	}
	_, err = orc.check(out, c.arg, false, orig)
	return err
}
