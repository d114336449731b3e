package experiments

import (
	"fmt"
	"strings"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/emu"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/rtlib"
	"icfgpatch/internal/workload"
)

// ProfileGuidedRun is one benchmark's guided-vs-unguided outcome: the
// binary is run once to capture block heat, rewritten twice with the
// same counter request (with and without the captured profile), and
// both rewrites re-run against the original output and cycle count.
type ProfileGuidedRun struct {
	Bench  string
	Pass   bool
	Reason string // failure reason when !Pass
	// HotFuncs/VariantFuncs are the guided rewrite's planning stats.
	HotFuncs     int
	VariantFuncs int
	// Unguided/Guided are cycle overheads vs. the original binary.
	Unguided float64
	Guided   float64
}

// ProfileGuidedResult is one architecture's with-vs-without-profile
// overhead comparison over the SPEC-like suite.
type ProfileGuidedResult struct {
	Arch arch.Arch
	Runs []ProfileGuidedRun
	// Aggregates over passing runs. Ratio is mean guided overhead over
	// mean unguided overhead (below 1 means guidance pays for its
	// dispatch stubs); TestProfileGuidedRatioBounds bounds it per
	// workload.
	UnguidedMean, GuidedMean float64
	Ratio                    float64
	Samples                  int
	Pass, Total              int
}

// blockCounter is the profile-guided measurement request: a counter at
// every block entry, the payload the fast variants elide off the hot
// path.
func blockCounter() instrument.Request {
	return instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadCounter}
}

// runHeat executes a binary on input arg with block-heat capture on,
// returning the result (Heat keyed by link-time block address)
// alongside any fault.
func runHeat(p *workload.Program, arg uint64) (emu.Result, error) {
	lib, err := rtlib.Preload(p.Binary)
	if err != nil {
		return emu.Result{}, err
	}
	m, err := emu.Load(p.Binary, emu.Options{Runtime: lib, Arg: arg, MaxInstrs: 80_000_000, CaptureHeat: true})
	if err != nil {
		return emu.Result{}, err
	}
	return m.Run()
}

// ProfileGuided runs the suite through the capture → rewrite → re-run
// loop on one architecture: the heat of a single profiling run guides
// the second rewrite, and both rewrites are measured against the
// original. The suite's benchmarks concentrate their cycles in loop
// bodies, so the captured profiles are naturally hot-skewed — the
// regime the multi-version rewrite is built for.
func ProfileGuided(a arch.Arch) (*ProfileGuidedResult, error) {
	suite, err := workload.SPECSuiteCached(a, false)
	if err != nil {
		return nil, err
	}
	gap := uint64(0)
	if a == arch.PPC {
		gap = ppcInstrGap
	}
	res := &ProfileGuidedResult{Arch: a}
	for _, p := range suite {
		res.Runs = append(res.Runs, profileGuidedOne(p, 0, gap))
	}
	var ug, gd []float64
	for _, r := range res.Runs {
		res.Total++
		if !r.Pass {
			continue
		}
		res.Pass++
		ug = append(ug, r.Unguided)
		gd = append(gd, r.Guided)
	}
	res.Samples = len(ug)
	_, res.UnguidedMean = aggregate(ug)
	_, res.GuidedMean = aggregate(gd)
	if res.UnguidedMean > 0 {
		res.Ratio = res.GuidedMean / res.UnguidedMean
	}
	return res, nil
}

// profileGuidedOne measures one benchmark run on input arg. Any panic
// fails the cell with a reason instead of killing the sweep, matching
// the package's graceful-failure contract.
func profileGuidedOne(p *workload.Program, arg, gap uint64) (out ProfileGuidedRun) {
	out = ProfileGuidedRun{Bench: p.Profile.Name}
	defer func() {
		if r := recover(); r != nil {
			out.Pass = false
			out.Reason = fmt.Sprintf("panic during rewrite: %v", r)
		}
	}()
	orig, err := runHeat(p, arg)
	if err != nil {
		out.Reason = "profiling run failed: " + err.Error()
		return out
	}
	an, err := core.Analyze(p.Binary, core.AnalysisConfig{Mode: core.ModeJT})
	if err != nil {
		out.Reason = "analysis failed: " + err.Error()
		return out
	}
	prof := an.ProfileFromHeat(p.Profile.Name, orig.Heat)

	opts := core.Options{Mode: core.ModeJT, Request: blockCounter(), InstrGap: gap}
	unguided, err := an.Patch(opts)
	if err != nil {
		out.Reason = "unguided rewrite failed: " + err.Error()
		return out
	}
	opts.Profile = prof
	guided, err := an.Patch(opts)
	if err != nil {
		out.Reason = "guided rewrite failed: " + err.Error()
		return out
	}
	out.HotFuncs = guided.Stats.HotFuncs
	out.VariantFuncs = guided.Stats.VariantFuncs

	ugRes, err := run(unguided.Binary, runOpts{arg: arg})
	if err != nil {
		out.Reason = "unguided binary faulted: " + err.Error()
		return out
	}
	gdRes, err := run(guided.Binary, runOpts{arg: arg})
	if err != nil {
		out.Reason = "guided binary faulted: " + err.Error()
		return out
	}
	var origRes emu.Result = orig
	if !sameOutput(ugRes, origRes) {
		out.Reason = "unguided output diverged"
		return out
	}
	if !sameOutput(gdRes, origRes) {
		out.Reason = "guided output diverged"
		return out
	}
	out.Pass = true
	out.Unguided = overhead(ugRes.Cycles, orig.Cycles)
	out.Guided = overhead(gdRes.Cycles, orig.Cycles)
	return out
}

// Render formats the per-benchmark comparison and the aggregate row.
func (r *ProfileGuidedResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Profile-guided counter instrumentation (%s)\n", r.Arch)
	fmt.Fprintf(&b, "%-16s %10s %10s %7s %9s\n", "", "unguided", "guided", "hot", "variants")
	for _, run := range r.Runs {
		if !run.Pass {
			fmt.Fprintf(&b, "%-16s FAILED: %s\n", run.Bench, run.Reason)
			continue
		}
		fmt.Fprintf(&b, "%-16s %10s %10s %7d %9d\n",
			run.Bench, pct(run.Unguided), pct(run.Guided), run.HotFuncs, run.VariantFuncs)
	}
	fmt.Fprintf(&b, "%-16s %10s %10s   ratio %.3f   pass %d/%d\n",
		"mean", pctN(r.UnguidedMean, r.Samples), pctN(r.GuidedMean, r.Samples),
		r.Ratio, r.Pass, r.Total)
	return b.String()
}

// Failures lists every failed benchmark as a "bench: reason" line.
func (r *ProfileGuidedResult) Failures() []string {
	var out []string
	for _, run := range r.Runs {
		if !run.Pass {
			out = append(out, fmt.Sprintf("%s/profile/%s: %s", r.Arch, run.Bench, run.Reason))
		}
	}
	return out
}
