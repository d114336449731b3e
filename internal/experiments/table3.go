package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"strings"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/baseline"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/core"
	"icfgpatch/internal/emu"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/workload"
)

// ppcInstrGap forces .instr beyond the ±32MB ppc64le branch range, the
// situation real HPC binaries with large code and data sections put the
// rewriter in (Section 7): it makes long/multi-hop/trap trampoline
// selection matter on PPC while X64's ±2GB branch and A64's ±128MB
// branch still reach.
const ppcInstrGap = 40 << 20

// Table3Run is one (approach, benchmark) outcome.
type Table3Run struct {
	Bench    string
	Pass     bool
	Reason   string  // failure reason when !Pass
	Overhead float64 // cycle overhead vs. the original binary
	Coverage float64
	SizeInc  float64
	Traps    int
	// Metrics are the rewrite's per-pass metrics (zero when the rewrite
	// itself failed before producing a result).
	Metrics core.Metrics
}

// Table3Approach aggregates one approach row of Table 3.
type Table3Approach struct {
	Name string
	Runs []Table3Run
	// Aggregates over the benchmarks (overhead/size over passing runs;
	// coverage over all rewrites that completed). The *Samples counts
	// record how many benchmarks each aggregate is over: an aggregate
	// with zero samples is undefined and renders as n/a, never as 0.00%.
	TimeMax, TimeMean float64
	CovMin, CovMean   float64
	SizeMax, SizeMean float64
	TimeSamples       int
	CovSamples        int
	Pass, Total       int
	// Metrics sums the per-pass rewrite metrics over all completed cells.
	Metrics core.Metrics
}

// Table3Result is one architecture's Table 3.
type Table3Result struct {
	Arch       arch.Arch
	Approaches []Table3Approach
}

// blockEmpty is the paper's measurement request: every basic block,
// empty payload, verification fill.
func blockEmpty() instrument.Request {
	return instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty}
}

// rewriteFn rewrites one benchmark program under one approach.
type rewriteFn func(p *workload.Program) (*core.Result, error)

// table3Spec is one approach row of the sweep: the approaches are fixed
// up front so the serial and parallel runners execute identical cells.
type table3Spec struct {
	name string
	pie  bool
	fn   rewriteFn
}

// table3Specs lists the sweep's approaches for one architecture: SRBI
// and the three incremental modes, plus IR lowering on x86-64 (where the
// paper managed to build Egalito).
func table3Specs(a arch.Arch) []table3Spec {
	gap := uint64(0)
	if a == arch.PPC {
		gap = ppcInstrGap
	}
	specs := []table3Spec{
		{"SRBI", false, func(p *workload.Program) (*core.Result, error) {
			return baseline.SRBI(p.Binary, baseline.SRBIOptions{Request: blockEmpty(), Verify: true, InstrGap: gap})
		}},
		{"dir", false, func(p *workload.Program) (*core.Result, error) {
			return core.Rewrite(p.Binary, core.Options{Mode: core.ModeDir, Request: blockEmpty(), Verify: true, InstrGap: gap})
		}},
		{"jt", false, func(p *workload.Program) (*core.Result, error) {
			return core.Rewrite(p.Binary, core.Options{Mode: core.ModeJT, Request: blockEmpty(), Verify: true, InstrGap: gap})
		}},
		{"func-ptr", false, func(p *workload.Program) (*core.Result, error) {
			return core.Rewrite(p.Binary, core.Options{Mode: core.ModeFuncPtr, Request: blockEmpty(), Verify: true, InstrGap: gap})
		}},
	}
	if a == arch.X64 {
		// IR lowering requires PIE; the paper compiled the benchmarks
		// with -pie for Egalito.
		specs = append(specs, table3Spec{"IR lowering", true, func(p *workload.Program) (*core.Result, error) {
			return baseline.IRLower(p.Binary, baseline.IRLowerOptions{Request: blockEmpty()})
		}})
	}
	return specs
}

// Table3ForArch runs the SPEC-like suite through every approach and
// aggregates the paper's Table 3 columns. The (approach, benchmark)
// cells run on up to jobs workers; jobs <= 0 means GOMAXPROCS and 1 is
// the serial run. Every cell is independent: the suite binaries are
// shared read-only (the rewriter clones before mutating, the emulator
// copies section data into its own pages) and each result is written to
// its own index, so the output is byte-identical regardless of job count
// or scheduling order.
func Table3ForArch(a arch.Arch, jobs int) (*Table3Result, error) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	suite, err := workload.SPECSuiteCached(a, false)
	if err != nil {
		return nil, err
	}
	var pieSuite []*workload.Program
	specs := table3Specs(a)
	for _, sp := range specs {
		if sp.pie {
			pieSuite, err = workload.SPECSuiteCached(a, true)
			if err != nil {
				return nil, err
			}
			break
		}
	}
	progsFor := func(sp table3Spec) []*workload.Program {
		if sp.pie {
			return pieSuite
		}
		return suite
	}

	type cell struct{ spec, bench int }
	var cells []cell
	for si, sp := range specs {
		for bi := range progsFor(sp) {
			cells = append(cells, cell{si, bi})
		}
	}
	runs := make([]Table3Run, len(cells))
	runIndexed(len(cells), jobs, func(i int) {
		c := cells[i]
		runs[i] = runOne(specs[c.spec].name, progsFor(specs[c.spec])[c.bench], specs[c.spec].fn)
	})

	res := &Table3Result{Arch: a}
	k := 0
	for _, sp := range specs {
		n := len(progsFor(sp))
		res.Approaches = append(res.Approaches, table3Aggregate(sp.name, runs[k:k+n]))
		k += n
	}
	return res, nil
}

// table3Aggregate folds one approach's runs into the table row. An
// approach with zero passing runs keeps zero samples and renders n/a —
// aggregating over an empty set must never print as a measured 0.00%.
func table3Aggregate(name string, runs []Table3Run) Table3Approach {
	row := Table3Approach{Name: name, Total: len(runs), Runs: append([]Table3Run(nil), runs...)}
	var ovh, cov, siz []float64
	for _, r := range runs {
		if r.Coverage >= 0 {
			cov = append(cov, r.Coverage)
		}
		if r.Pass {
			row.Pass++
			ovh = append(ovh, r.Overhead)
			siz = append(siz, r.SizeInc)
		}
		row.Metrics.Add(r.Metrics)
	}
	row.TimeSamples = len(ovh)
	row.CovSamples = len(cov)
	row.TimeMax, row.TimeMean = aggregate(ovh)
	row.SizeMax, row.SizeMean = aggregate(siz)
	_, row.CovMean = aggregate(cov)
	row.CovMin = minOf(cov)
	return row
}

// runOne measures one (approach, benchmark) cell. A panic anywhere in
// the rewrite or measurement fails this cell with a reported reason
// instead of killing the whole sweep — the per-run half of the paper's
// graceful-failure contract (§4.3).
func runOne(label string, p *workload.Program, rewrite rewriteFn) (out Table3Run) {
	out = Table3Run{Bench: p.Profile.Name, Coverage: -1}
	defer func() {
		if r := recover(); r != nil {
			out.Pass = false
			out.Reason = fmt.Sprintf("panic during rewrite: %v", r)
		}
	}()
	orig, err := run(p.Binary, runOpts{})
	if err != nil {
		out.Reason = "original run failed: " + err.Error()
		return out
	}
	sp := traceRun(label, p.Profile.Name)
	rw, err := rewrite(p)
	if err == nil {
		rw.Metrics.AddSpans(sp, false)
	}
	emitTrace(sp)
	if err != nil {
		out.Reason = "rewrite failed: " + err.Error()
		if errors.Is(err, core.ErrImpreciseFuncPtrs) {
			out.Reason = "func-ptr analysis not precise: " + err.Error()
		}
		return out
	}
	out.Coverage = rw.Stats.Coverage()
	out.SizeInc = rw.Stats.SizeIncrease()
	out.Traps = rw.Metrics.TrapCount()
	out.Metrics = rw.Metrics
	got, err := run(rw.Binary, runOpts{})
	if err != nil {
		out.Reason = "rewritten binary faulted: " + err.Error()
		return out
	}
	var origRes emu.Result = orig
	if !sameOutput(got, origRes) {
		out.Reason = "output diverged"
		return out
	}
	out.Pass = true
	out.Overhead = overhead(got.Cycles, orig.Cycles)
	return out
}

// Render formats the table the way the paper prints it.
func (t *Table3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3 — block-level empty instrumentation (%s)\n", t.Arch)
	fmt.Fprintf(&b, "%-12s %9s %9s | %8s %8s | %9s %9s | %s\n",
		"", "time max", "time mean", "cov min", "cov mean", "size max", "size mean", "pass")
	for _, ap := range t.Approaches {
		fmt.Fprintf(&b, "%-12s %9s %9s | %8s %8s | %9s %9s | %d/%d\n",
			ap.Name, pctN(ap.TimeMax, ap.TimeSamples), pctN(ap.TimeMean, ap.TimeSamples),
			pctN(ap.CovMin, ap.CovSamples), pctN(ap.CovMean, ap.CovSamples),
			pctN(ap.SizeMax, ap.TimeSamples), pctN(ap.SizeMean, ap.TimeSamples), ap.Pass, ap.Total)
	}
	for _, ap := range t.Approaches {
		for _, r := range ap.Runs {
			if !r.Pass {
				fmt.Fprintf(&b, "  %s: %s FAILED: %s\n", ap.Name, r.Bench, r.Reason)
			}
		}
	}
	return b.String()
}

// MetricsRender formats the aggregated per-pass rewrite metrics of the
// sweep. The stage timings are wall-clock and therefore excluded from
// Render's deterministic table output.
func (t *Table3Result) MetricsRender() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Pipeline metrics (%s)\n", t.Arch)
	for _, ap := range t.Approaches {
		fmt.Fprintf(&b, "  %-12s %s\n", ap.Name,
			strings.ReplaceAll(ap.Metrics.Render(), "\n", "\n               "))
	}
	return b.String()
}

// Failures lists every failed (approach, benchmark) cell as a
// "approach/bench: reason" line, for callers that must signal failures
// through the process exit status rather than only in the table.
func (t *Table3Result) Failures() []string {
	var out []string
	for _, ap := range t.Approaches {
		for _, r := range ap.Runs {
			if !r.Pass {
				out = append(out, fmt.Sprintf("%s/%s/%s: %s", t.Arch, ap.Name, r.Bench, r.Reason))
			}
		}
	}
	return out
}

// ensure bin import is used (section constants appear in other files).
var _ = bin.SecInstr
