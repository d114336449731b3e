package experiments

import (
	"errors"
	"fmt"
	"strings"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/workload"
)

// LandingPadRow is one (workload, build) cell of the evidence-layer
// study: the same program rewritten in func-ptr mode with the evidence
// layer engaged and on the conservative (NoEvidence) path, against the
// build's own original run.
type LandingPadRow struct {
	Bench string
	CFI   bool
	Pass  bool
	// Reason explains a failed cell.
	Reason string
	// Evidence/Conservative record the func-ptr rewrite outcome on each
	// path: accepted, or the refusal reason.
	Evidence     string
	Conservative string
	// Marks/Skips/MarkBounded are the accepted evidence rewrite's
	// attribution stats (zero when refused).
	Marks, Skips, MarkBounded int
	// Coverage/Overhead measure the accepted evidence rewrite: function
	// coverage and cycle overhead vs. this build's original. CFI builds
	// run both binaries under CET enforcement, so the overhead row also
	// certifies every indirect transfer still lands on a marker.
	Coverage, Overhead float64
	// MarkCost is the CFI build's original-run cycle overhead relative
	// to the marker-less build's original run — what the landing pads
	// themselves cost before any rewriting (CFI rows only).
	MarkCost float64

	// origCycles carries the build's original run cost so LandingPads
	// can derive MarkCost across the plain/CFI pair.
	origCycles uint64
}

// LandingPadResult is one architecture's with/without-landing-pads
// comparison of func-ptr mode over the paired workloads.
type LandingPadResult struct {
	Arch arch.Arch
	Rows []LandingPadRow
	// EvidenceAccepted/ConservativeAccepted count accepted cells per
	// path; TestLandingPadCoverageCounts asserts both exactly on x64.
	EvidenceAccepted, ConservativeAccepted int
	Pass, Total                            int
}

// landingPadPair is one paired workload: the same generator with CFI
// landing pads off and on.
type landingPadPair struct {
	name  string
	arg   uint64
	plain func(arch.Arch) (*workload.Program, error)
	cfi   func(arch.Arch) (*workload.Program, error)
}

// landingPadPairs lists the paired workloads. The Go function-table
// programs are the paper's func-ptr failure case (conservative analysis
// must refuse); perlbench's spilled-index switches produce the inexact
// jump-table bounds marker evidence tightens; libxul is the case
// func-ptr mode already handles, so it measures what marker evidence
// costs when it buys nothing. Docker's command dispatch only assembles
// on x64; the rest pair on every ISA.
func landingPadPairs(a arch.Arch) []landingPadPair {
	pairs := []landingPadPair{
		{"go-table", 1, workload.GoTable, workload.GoTableCFI},
		{"600.perlbench_s", 0,
			func(a arch.Arch) (*workload.Program, error) { return specOne(a, "600.perlbench_s", false) },
			func(a arch.Arch) (*workload.Program, error) { return specOne(a, "600.perlbench_s", true) }},
	}
	if a == arch.X64 {
		pairs = append(pairs,
			landingPadPair{"docker", 1, workload.Docker, workload.DockerCFI},
			landingPadPair{"libxul.so", workload.CmdLatencyBenchmark, workload.Libxul, workload.LibxulCFI})
	}
	return pairs
}

// specOne generates one SPEC-like benchmark, optionally as its CFI
// build.
func specOne(a arch.Arch, name string, cfi bool) (*workload.Program, error) {
	if cfi {
		return workload.SPECCFI(a, false, name)
	}
	suite, err := workload.SPECSuiteCached(a, false)
	if err != nil {
		return nil, err
	}
	for _, p := range suite {
		if p.Profile.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("experiments: no SPEC benchmark named %q", name)
}

// LandingPads runs the evidence-layer study on one architecture: every
// paired workload is rewritten in func-ptr mode on both the evidence
// and the conservative path, accepted rewrites are re-run against the
// original (under CET enforcement for CFI builds), and the marker
// instructions' own run-time cost is measured from the paired
// originals.
func LandingPads(a arch.Arch) (*LandingPadResult, error) {
	gap := uint64(0)
	if a == arch.PPC {
		gap = ppcInstrGap
	}
	res := &LandingPadResult{Arch: a}
	for _, pair := range landingPadPairs(a) {
		plain, err := pair.plain(a)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", pair.name, err)
		}
		cfi, err := pair.cfi(a)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s (cfi): %w", pair.name, err)
		}
		plainRow := landingPadOne(plain, pair.arg, gap, false)
		cfiRow := landingPadOne(cfi, pair.arg, gap, true)
		// The markers' own cost: CFI original vs. plain original, from
		// the two builds' baseline runs.
		if plainRow.origCycles > 0 && cfiRow.origCycles > 0 {
			cfiRow.MarkCost = overhead(cfiRow.origCycles, plainRow.origCycles)
		}
		res.Rows = append(res.Rows, plainRow, cfiRow)
	}
	for _, r := range res.Rows {
		res.Total++
		if r.Pass {
			res.Pass++
		}
		if r.Evidence == "accepted" {
			res.EvidenceAccepted++
		}
		if r.Conservative == "accepted" {
			res.ConservativeAccepted++
		}
	}
	return res, nil
}

// landingPadOne measures one build: original run (CET-enforced when the
// build claims CFI), func-ptr rewrite on both paths, and the accepted
// evidence rewrite's re-run. A refusal on the conservative path is a
// recorded outcome, not a failure — it is the behaviour the paper
// documents for Go binaries; the cell fails only when something
// violates the evidence layer's contract (a CFI build refused under
// evidence, an output divergence, a CET fault).
func landingPadOne(p *workload.Program, arg, gap uint64, isCFI bool) (out LandingPadRow) {
	out = LandingPadRow{Bench: p.Profile.Name, CFI: isCFI}
	defer func() {
		if r := recover(); r != nil {
			out.Pass = false
			out.Reason = fmt.Sprintf("panic during rewrite: %v", r)
		}
	}()
	orig, err := run(p.Binary, runOpts{arg: arg, enforceCET: isCFI})
	if err != nil {
		out.Reason = "original run failed: " + err.Error()
		return out
	}
	out.origCycles = orig.Cycles

	outcome := func(noEvidence bool) (*core.Result, string) {
		res, err := core.Rewrite(p.Binary, core.Options{
			Mode:       core.ModeFuncPtr,
			Request:    blockEmpty(),
			Verify:     true,
			InstrGap:   gap,
			NoEvidence: noEvidence,
		})
		switch {
		case err == nil:
			return res, "accepted"
		case errors.Is(err, core.ErrImpreciseFuncPtrs):
			return nil, "refused (imprecise)"
		default:
			return nil, "failed: " + err.Error()
		}
	}
	_, out.Conservative = outcome(true)
	evRes, evOutcome := outcome(false)
	out.Evidence = evOutcome
	if evRes == nil {
		// A CFI build the evidence layer cannot accept is the failure the
		// experiment exists to catch; a marker-less refusal is the
		// documented conservative behaviour.
		out.Pass = !isCFI && out.Evidence == out.Conservative
		if !out.Pass {
			out.Reason = "evidence path: " + evOutcome
		}
		return out
	}
	out.Marks = evRes.Stats.MarkSites
	out.Skips = evRes.Stats.EvidenceSkips
	out.MarkBounded = evRes.Stats.MarkBoundedTables
	out.Coverage = evRes.Stats.Coverage()
	got, err := run(evRes.Binary, runOpts{arg: arg, enforceCET: isCFI})
	if err != nil {
		out.Reason = "rewritten binary faulted: " + err.Error()
		return out
	}
	if !sameOutput(got, orig) {
		out.Reason = "rewritten output diverged"
		return out
	}
	out.Pass = true
	out.Overhead = overhead(got.Cycles, orig.Cycles)
	return out
}

// Render formats the study as the EXPERIMENTS.md table: one row per
// build, acceptance on both paths, evidence attribution, and the three
// costs (instrumentation overhead, marker cost, coverage).
func (r *LandingPadResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Landing-pad evidence: func-ptr mode with and without markers (%s)\n", r.Arch)
	fmt.Fprintf(&b, "%-16s %-6s %-19s %-19s %6s %6s %9s %9s %9s %9s\n",
		"benchmark", "build", "conservative", "evidence", "marks", "skips", "mb-tables", "coverage", "overhead", "mark-cost")
	for _, row := range r.Rows {
		build := "plain"
		if row.CFI {
			build = "cfi"
		}
		if !row.Pass {
			fmt.Fprintf(&b, "%-16s %-6s FAILED: %s\n", row.Bench, build, row.Reason)
			continue
		}
		cov, ovh, cost := "n/a", "n/a", "-"
		if row.Evidence == "accepted" {
			cov, ovh = pct(row.Coverage), pct(row.Overhead)
		}
		if row.CFI {
			cost = pct(row.MarkCost)
		}
		fmt.Fprintf(&b, "%-16s %-6s %-19s %-19s %6d %6d %9d %9s %9s %9s\n",
			row.Bench, build, row.Conservative, row.Evidence,
			row.Marks, row.Skips, row.MarkBounded, cov, ovh, cost)
	}
	fmt.Fprintf(&b, "accepted: evidence %d/%d, conservative %d/%d   coverage ratio %.3f   pass %d/%d\n",
		r.EvidenceAccepted, r.Total, r.ConservativeAccepted, r.Total,
		r.CoverageRatio(), r.Pass, r.Total)
	return b.String()
}

// CoverageRatio is evidence-path acceptances over conservative-path
// acceptances (above 1 means landing pads convert refusals into sound
// rewrites; exactly 1 means the evidence layer bought nothing; 0
// conservative acceptances make the ratio undefined and return 0).
func (r *LandingPadResult) CoverageRatio() float64 {
	if r.ConservativeAccepted == 0 {
		return 0
	}
	return float64(r.EvidenceAccepted) / float64(r.ConservativeAccepted)
}

// Failures lists every failed cell as a "bench/build: reason" line.
func (r *LandingPadResult) Failures() []string {
	var out []string
	for _, row := range r.Rows {
		if !row.Pass {
			build := "plain"
			if row.CFI {
				build = "cfi"
			}
			out = append(out, fmt.Sprintf("%s/landingpads/%s/%s: %s", r.Arch, row.Bench, build, row.Reason))
		}
	}
	return out
}
