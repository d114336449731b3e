// Package icfgpatch_test holds the benchmark harness: one benchmark per
// table and figure of the paper's evaluation. The benchmarks execute the
// same pipelines as cmd/icfg-experiments and report the paper's metrics
// (cycle overhead percentages, trap counts, speedups) via b.ReportMetric,
// so `go test -bench=. -benchmem` regenerates every result.
package icfgpatch_test

import (
	"runtime"
	"sync"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/baseline"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/core"
	"icfgpatch/internal/emu"
	"icfgpatch/internal/experiments"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/rtlib"
	"icfgpatch/internal/workload"
)

// blockEmpty is the paper's Table 3 instrumentation request.
func blockEmpty() instrument.Request {
	return instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty}
}

// mustRun executes a binary with the runtime library preloaded.
func mustRun(b *testing.B, img *bin.Binary, arg uint64) emu.Result {
	b.Helper()
	lib, err := rtlib.Preload(img)
	if err != nil {
		b.Fatal(err)
	}
	m, err := emu.Load(img, emu.Options{Runtime: lib, Arg: arg})
	if err != nil {
		b.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1Capabilities regenerates the qualitative comparison
// (paper Table 1).
func BenchmarkTable1Capabilities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := baseline.Table1(); len(rows) != 7 {
			b.Fatal("table 1 shape")
		}
	}
}

// BenchmarkTable2Trampolines constructs and encodes every trampoline
// form of paper Table 2 on all three architectures.
func BenchmarkTable2Trampolines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, a := range arch.All() {
			if tr, ok := arch.NewShortTrampoline(a, 0x10000, 0x10040); ok {
				if _, err := tr.Encode(a); err != nil {
					b.Fatal(err)
				}
			}
			if tr, ok := arch.NewLongTrampoline(a, 0x10000, 0x5000000, arch.R9, 0x10008000); ok {
				if _, err := tr.Encode(a); err != nil {
					b.Fatal(err)
				}
			}
			tr := arch.NewTrapTrampoline(a, 0x10000, 0x5000000)
			if _, err := tr.Encode(a); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// table3Fixture caches one representative SPEC-like benchmark per
// architecture with its rewrites.
type table3Fixture struct {
	orig emu.Result
	imgs map[string]*bin.Binary
}

var (
	table3Once sync.Once
	table3     map[arch.Arch]*table3Fixture
)

func table3Setup(b *testing.B) map[arch.Arch]*table3Fixture {
	b.Helper()
	table3Once.Do(func() {
		table3 = map[arch.Arch]*table3Fixture{}
		for _, a := range arch.All() {
			suite, err := workload.SPECSuiteCached(a, false)
			if err != nil {
				panic(err)
			}
			p := suite[0] // 600.perlbench_s: switch- and call-heavy
			fx := &table3Fixture{imgs: map[string]*bin.Binary{}}
			m, err := emu.Load(p.Binary, emu.Options{})
			if err != nil {
				panic(err)
			}
			fx.orig, err = m.Run()
			if err != nil {
				panic(err)
			}
			gap := uint64(0)
			if a == arch.PPC {
				gap = 40 << 20
			}
			for _, mode := range []core.Mode{core.ModeDir, core.ModeJT, core.ModeFuncPtr} {
				rw, err := core.Rewrite(p.Binary, core.Options{Mode: mode, Request: blockEmpty(), Verify: true, InstrGap: gap})
				if err != nil {
					panic(err)
				}
				fx.imgs[mode.String()] = rw.Binary
			}
			if srbi, err := baseline.SRBI(p.Binary, baseline.SRBIOptions{Request: blockEmpty(), Verify: true, InstrGap: gap}); err == nil {
				fx.imgs["SRBI"] = srbi.Binary
			}
			table3[a] = fx
		}
	})
	return table3
}

// BenchmarkTable3SPEC measures the block-level empty instrumentation
// overhead (paper Table 3) of each approach on a representative
// benchmark, per architecture. The reported overhead_pct metric is the
// paper's "time overhead" column.
func BenchmarkTable3SPEC(b *testing.B) {
	fixtures := table3Setup(b)
	for _, a := range arch.All() {
		fx := fixtures[a]
		for _, name := range []string{"SRBI", "dir", "jt", "func-ptr"} {
			img := fx.imgs[name]
			if img == nil {
				continue
			}
			b.Run(a.String()+"/"+name, func(b *testing.B) {
				var last emu.Result
				for i := 0; i < b.N; i++ {
					last = mustRun(b, img, 0)
				}
				ovh := 100 * (float64(last.Cycles)/float64(fx.orig.Cycles) - 1)
				b.ReportMetric(ovh, "overhead_%")
				b.ReportMetric(float64(last.Traps), "traps")
			})
		}
	}
}

// BenchmarkTable3Rewrite measures the rewriter's own throughput (bytes
// of text rewritten per second) — the cost of running the tool, not of
// the rewritten binary — and reports the per-pass metrics of the last
// rewrite (stage shares in milliseconds, scratch bytes harvested).
func BenchmarkTable3Rewrite(b *testing.B) {
	for _, a := range arch.All() {
		suite, err := workload.SPECSuiteCached(a, false)
		if err != nil {
			b.Fatal(err)
		}
		p := suite[1] // 602.gcc_s, the largest
		b.Run(a.String(), func(b *testing.B) {
			b.SetBytes(int64(p.Binary.Text().Size()))
			var last *core.Result
			for i := 0; i < b.N; i++ {
				res, err := core.Rewrite(p.Binary, core.Options{Mode: core.ModeJT, Request: blockEmpty(), Verify: true})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			mx := last.Metrics
			for _, st := range mx.Stages {
				b.ReportMetric(float64(st.Wall.Microseconds())/1000, st.Name+"_ms")
			}
			b.ReportMetric(float64(mx.ScratchBytesHarvested), "scratch_bytes")
			b.ReportMetric(float64(mx.TrampolineTotal()), "trampolines")
		})
	}
}

// BenchmarkTable3Sweep runs the Table 3 runner with one worker (serial)
// and with GOMAXPROCS workers (parallel) over the full (benchmark,
// approach) grid of one architecture. On a multi-core machine the
// parallel sub-benchmark's wall clock drops with the worker count; the
// outputs are asserted byte-identical either way.
func BenchmarkTable3Sweep(b *testing.B) {
	// Warm the workload cache so both sub-benchmarks measure the sweep,
	// not suite generation.
	if _, err := workload.SPECSuiteCached(arch.A64, false); err != nil {
		b.Fatal(err)
	}
	var serialOut, parallelOut string
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := experiments.Table3ForArch(arch.A64, 1)
			if err != nil {
				b.Fatal(err)
			}
			serialOut = res.Render()
		}
	})
	b.Run("parallel", func(b *testing.B) {
		jobs := runtime.GOMAXPROCS(0)
		b.ReportMetric(float64(jobs), "jobs")
		for i := 0; i < b.N; i++ {
			res, err := experiments.Table3ForArch(arch.A64, jobs)
			if err != nil {
				b.Fatal(err)
			}
			parallelOut = res.Render()
		}
	})
	if serialOut != "" && parallelOut != "" && serialOut != parallelOut {
		b.Fatal("parallel sweep output diverged from serial")
	}
}

// BenchmarkFirefoxLibxul drives the Section 8.2 libxul.so workloads
// through the jt and func-ptr rewrites.
func BenchmarkFirefoxLibxul(b *testing.B) {
	p, err := workload.LibxulCached(arch.X64)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []core.Mode{core.ModeJT, core.ModeFuncPtr} {
		rw, err := core.Rewrite(p.Binary, core.Options{Mode: mode, Request: blockEmpty(), Verify: true})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.String(), func(b *testing.B) {
			m0, err := emu.Load(p.Binary, emu.Options{Arg: workload.CmdLatencyBenchmark})
			if err != nil {
				b.Fatal(err)
			}
			orig, err := m0.Run()
			if err != nil {
				b.Fatal(err)
			}
			// The baseline run above is setup, not the measurement.
			b.ResetTimer()
			var last emu.Result
			for i := 0; i < b.N; i++ {
				last = mustRun(b, rw.Binary, workload.CmdLatencyBenchmark)
			}
			b.ReportMetric(100*(float64(last.Cycles)/float64(orig.Cycles)-1), "latency_overhead_%")
		})
	}
}

// BenchmarkRewriteWarmVsCold measures the rewrite-as-a-service win on
// the libxul-like workload: a cold end-to-end Rewrite against a warm
// Patch on a cached analysis (the icfg-serve hit path). The speedup_x
// metric is the warm-path multiplier; the warm output is asserted
// byte-identical to the cold one.
func BenchmarkRewriteWarmVsCold(b *testing.B) {
	p, err := workload.LibxulCached(arch.X64)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Mode: core.ModeJT, Request: blockEmpty()}

	var cold, warm float64
	var coldImg, warmImg []byte
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.Rewrite(p.Binary, opts)
			if err != nil {
				b.Fatal(err)
			}
			if coldImg == nil {
				// Marshalling the identity-check image is not rewrite work.
				b.StopTimer()
				coldImg = res.Binary.Marshal()
				b.StartTimer()
			}
		}
		cold = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("warm", func(b *testing.B) {
		an, err := core.Analyze(p.Binary, core.AnalysisConfig{Mode: opts.Mode})
		if err != nil {
			b.Fatal(err)
		}
		// Prime the lazy per-function placements so the steady-state hit
		// path is measured, as on a served analysis after its first patch.
		res, err := an.Patch(opts)
		if err != nil {
			b.Fatal(err)
		}
		warmImg = res.Binary.Marshal()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := an.Patch(opts); err != nil {
				b.Fatal(err)
			}
		}
		warm = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		if cold > 0 && warm > 0 {
			b.ReportMetric(cold/warm, "speedup_x")
		}
	})
	if coldImg != nil && warmImg != nil && string(coldImg) != string(warmImg) {
		b.Fatal("warm patch output diverged from cold rewrite")
	}
}

// BenchmarkDeltaVsCold measures the function-granular delta path on a
// version pair: v2 mutates 3 functions of the libxul-like workload, and
// the delta sub-benchmark re-analyzes v2 against a unit store warmed on
// v1, reusing every unchanged function. The speedup_x metric is the
// delta multiplier over a cold v2 rewrite; outputs are asserted
// byte-identical.
func BenchmarkDeltaVsCold(b *testing.B) {
	p, err := workload.LibxulCached(arch.X64)
	if err != nil {
		b.Fatal(err)
	}
	v1 := p.Binary
	v2, _, err := workload.MutateVersion(v1, 3, 17)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Mode: core.ModeJT, Request: blockEmpty()}

	var cold, delta float64
	var coldImg, deltaImg []byte
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.Rewrite(v2, opts)
			if err != nil {
				b.Fatal(err)
			}
			if coldImg == nil {
				b.StopTimer()
				coldImg = res.Binary.Marshal()
				b.StartTimer()
			}
		}
		cold = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("delta", func(b *testing.B) {
		units := core.NewUnitStore(0)
		if _, err := core.Analyze(v1, core.AnalysisConfig{Mode: opts.Mode, Units: units}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var reused, recomputed int
		for i := 0; i < b.N; i++ {
			an, err := core.Analyze(v2, core.AnalysisConfig{Mode: opts.Mode, Units: units})
			if err != nil {
				b.Fatal(err)
			}
			res, err := an.Patch(opts)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				// Later iterations find v2's own units already stored; the
				// first is the real v1 -> v2 delta.
				reused, recomputed = an.Metrics.FuncsReused, an.Metrics.FuncsRecomputed
			}
			if deltaImg == nil {
				// StopTimer, not post-loop marshalling: the first iteration
				// is the real v1 -> v2 delta, so it must stay in the loop.
				b.StopTimer()
				deltaImg = res.Binary.Marshal()
				b.StartTimer()
			}
		}
		delta = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(float64(reused), "funcs_reused")
		b.ReportMetric(float64(recomputed), "funcs_recomputed")
		if cold > 0 && delta > 0 {
			b.ReportMetric(cold/delta, "speedup_x")
		}
	})
	if coldImg != nil && deltaImg != nil && string(coldImg) != string(deltaImg) {
		b.Fatal("delta rewrite output diverged from cold rewrite")
	}
}

// BenchmarkDockerGo drives the Section 8.2 Docker experiment's "run"
// command through the jt rewrite with Go runtime RA translation.
func BenchmarkDockerGo(b *testing.B) {
	p, err := workload.DockerCached(arch.X64)
	if err != nil {
		b.Fatal(err)
	}
	rw, err := core.Rewrite(p.Binary, core.Options{Mode: core.ModeJT, Request: blockEmpty(), Verify: true})
	if err != nil {
		b.Fatal(err)
	}
	m0, err := emu.Load(p.Binary, emu.Options{Arg: 2})
	if err != nil {
		b.Fatal(err)
	}
	orig, err := m0.Run()
	if err != nil {
		b.Fatal(err)
	}
	// The rewrite and baseline run above are setup, not the measurement.
	b.ResetTimer()
	var last emu.Result
	for i := 0; i < b.N; i++ {
		last = mustRun(b, rw.Binary, 2)
	}
	b.ReportMetric(100*(float64(last.Cycles)/float64(orig.Cycles)-1), "overhead_%")
	b.ReportMetric(float64(last.Walks), "gc_walks")
}

// BenchmarkBOLTComparison performs the Section 8.3 block-reordering
// transformation with the incremental rewriter (the configuration that
// works on all benchmarks) and runs the result.
func BenchmarkBOLTComparison(b *testing.B) {
	suite, err := workload.SPECSuiteCached(arch.X64, true)
	if err != nil {
		b.Fatal(err)
	}
	p := suite[0]
	req := instrument.Request{Where: instrument.FuncEntry, Payload: instrument.PayloadEmpty}
	rw, err := core.Rewrite(p.Binary, core.Options{
		Mode: core.ModeJT, Request: req, Verify: true,
		Variant: core.Variant{ReverseBlocks: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	// The rewrite above is setup, not the measurement.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustRun(b, rw.Binary, 0)
	}
	b.ReportMetric(100*rw.Stats.SizeIncrease(), "size_increase_%")
}

// BenchmarkDiogenesCaseStudy runs the Section 9 identification test under
// both rewrites; the speedup metric is the paper's 60x headline.
func BenchmarkDiogenesCaseStudy(b *testing.B) {
	res, err := experiments.Diogenes()
	if err != nil {
		b.Fatal(err)
	}
	p, err := workload.LibcudaCached(arch.X64)
	if err != nil {
		b.Fatal(err)
	}
	targets := workload.DiogenesTargets(p, 70)
	rw, err := core.Rewrite(p.Binary, core.Options{
		Mode:    core.ModeJT,
		Request: instrument.Request{Where: instrument.FuncEntry, Payload: instrument.PayloadCounter, Funcs: targets},
		Verify:  true,
	})
	if err != nil {
		b.Fatal(err)
	}
	// The Diogenes pipeline and rewrite above are setup, not the
	// measurement.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustRun(b, rw.Binary, 0)
	}
	b.ReportMetric(res.Speedup, "speedup_x")
	b.ReportMetric(float64(res.MainstreamTraps), "mainstream_traps")
}

// BenchmarkFigure2FailureModes exercises the failure-mode pipeline.
func BenchmarkFigure2FailureModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		if !res.UnderApproxDetected {
			b.Fatal("under-approximation undetected")
		}
	}
}

// BenchmarkAblation runs the design-choice ablation study (DESIGN.md's
// per-experiment index) on the trampoline-stressed PPC configuration.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablation(arch.PPC)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Name == "- superblocks" {
				b.ReportMetric(float64(row.Traps), "traps_without_superblocks")
			}
		}
	}
}
