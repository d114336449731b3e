package core

import (
	"fmt"
	"strings"
	"time"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/obs"
)

// Pipeline stage names, in execution order. Every Rewrite records all of
// them (a stage that does not apply records a near-zero duration), so
// metrics from different runs aggregate positionally.
const (
	StageCFG         = "cfg"
	StageFuncPtr     = "funcptr-analysis"
	StagePlan        = "plan"
	StageLayout      = "layout"
	StageEmit        = "emit"
	StageTrampolines = "trampolines"
	StagePointers    = "pointer-rewrite"
	StageFinalize    = "finalize"
)

// AnalysisStage reports whether a stage belongs to Analyze (cfg,
// funcptr-analysis) rather than Patch. A Patch against a cached analysis
// carries the analysis stages' laps from the run that built it.
func AnalysisStage(name string) bool { return name == StageCFG || name == StageFuncPtr }

// StageMetric is the wall-clock cost of one rewrite pass.
type StageMetric struct {
	Name string
	Wall time.Duration
}

// Metrics is the per-pass metrics layer: stage timings plus the counters
// that explain where a rewrite's time and bytes went — trampoline
// placement and the delta split. Rewrite fills one per call; experiment
// sweeps aggregate them across many cells with Add.
// Timings are wall-clock and therefore non-deterministic; everything
// else is a deterministic function of the input binary and options.
type Metrics struct {
	Stages []StageMetric
	// CFLBlocks counts control-flow-landing blocks across instrumented
	// functions; ScratchBlocks counts the non-CFL remainder.
	CFLBlocks     int
	ScratchBlocks int
	// ScratchBytesHarvested is the total scratch space collected from
	// retired sections, padding, and unused superblock bytes;
	// ScratchBytesFree is what the trampoline passes left unused.
	ScratchBytesHarvested uint64
	ScratchBytesFree      uint64
	// Trampolines counts installed trampolines by class.
	Trampolines map[arch.TrampolineClass]int
	// ClonedTables counts jump tables cloned into .rodata.icfg.
	ClonedTables int
	// AnalysisFailures counts functions whose CFG or jump-table analysis
	// failed and were skipped (partial instrumentation).
	AnalysisFailures int
	// FuncsReused / FuncsRecomputed report the delta engine's work split:
	// how many per-function analysis units were pulled unchanged from the
	// unit store versus recomputed. A cold analysis (no unit store)
	// recomputes everything.
	FuncsReused     int
	FuncsRecomputed int
	// PatchFuncsReencoded counts the function units the emit stage
	// rendered and encoded: every unit with items, on every Patch.
	// PatchFuncsReused is always 0 — emission keeps no cache — and
	// stays only for callers that still read it.
	PatchFuncsReused    int
	PatchFuncsReencoded int
}

// lap appends a stage timing measured since *last and advances *last.
func (m *Metrics) lap(name string, last *time.Time) {
	now := time.Now()
	m.Stages = append(m.Stages, StageMetric{Name: name, Wall: now.Sub(*last)})
	*last = now
}

// Add accumulates o into m so sweeps can aggregate per-cell metrics.
// Stage timings merge by name; counters sum.
func (m *Metrics) Add(o Metrics) {
	for _, s := range o.Stages {
		found := false
		for i := range m.Stages {
			if m.Stages[i].Name == s.Name {
				m.Stages[i].Wall += s.Wall
				found = true
				break
			}
		}
		if !found {
			m.Stages = append(m.Stages, s)
		}
	}
	m.CFLBlocks += o.CFLBlocks
	m.ScratchBlocks += o.ScratchBlocks
	m.ScratchBytesHarvested += o.ScratchBytesHarvested
	m.ScratchBytesFree += o.ScratchBytesFree
	if len(o.Trampolines) > 0 {
		if m.Trampolines == nil {
			m.Trampolines = map[arch.TrampolineClass]int{}
		}
		for c, n := range o.Trampolines {
			m.Trampolines[c] += n
		}
	}
	m.ClonedTables += o.ClonedTables
	m.AnalysisFailures += o.AnalysisFailures
	m.FuncsReused += o.FuncsReused
	m.FuncsRecomputed += o.FuncsRecomputed
	m.PatchFuncsReused += o.PatchFuncsReused
	m.PatchFuncsReencoded += o.PatchFuncsReencoded
}

// TrapCount returns the number of trap trampolines installed.
func (m Metrics) TrapCount() int { return m.Trampolines[arch.TrampTrap] }

// TotalWall sums the stage timings.
func (m Metrics) TotalWall() time.Duration {
	var d time.Duration
	for _, s := range m.Stages {
		d += s.Wall
	}
	return d
}

// TrampolineTotal sums installed trampolines across classes.
func (m Metrics) TrampolineTotal() int {
	n := 0
	for _, v := range m.Trampolines {
		n += v
	}
	return n
}

// Render formats the metrics as a two-line human-readable summary.
func (m Metrics) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stages:")
	for _, s := range m.Stages {
		fmt.Fprintf(&b, " %s=%s", s.Name, s.Wall.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, " total=%s\n", m.TotalWall().Round(time.Microsecond))
	fmt.Fprintf(&b, "counters: cfl-blocks=%d scratch-blocks=%d scratch-bytes=%d (free %d) trampolines=%d tables-cloned=%d analysis-failures=%d funcs-reused=%d funcs-recomputed=%d patch-reencoded=%d",
		m.CFLBlocks, m.ScratchBlocks, m.ScratchBytesHarvested, m.ScratchBytesFree,
		m.TrampolineTotal(), m.ClonedTables, m.AnalysisFailures, m.FuncsReused, m.FuncsRecomputed,
		m.PatchFuncsReencoded)
	return b.String()
}

// AddSpans renders m as a span subtree under sp, the -trace view of the
// record: an "analyze" span holding the analysis stage laps (cfg,
// funcptr-analysis) and a "patch" span holding the patch stage laps,
// annotated with the pipeline counters. Each parent lasts the sum of its
// laps. With analysisCached the analysis was built for an earlier
// request, so "analyze" is a zero-length span marked cached=true and its
// laps are left out. A nil sp renders nothing, so untraced callers pay
// nothing.
func (m Metrics) AddSpans(sp *obs.Span, analysisCached bool) {
	if sp == nil {
		return
	}
	var ana, pat []StageMetric
	var anaWall, patWall time.Duration
	for _, s := range m.Stages {
		if AnalysisStage(s.Name) {
			ana, anaWall = append(ana, s), anaWall+s.Wall
		} else {
			pat, patWall = append(pat, s), patWall+s.Wall
		}
	}
	if analysisCached {
		sp.Record("analyze", 0).SetAttr("cached", "true")
	} else {
		a := sp.Record("analyze", anaWall)
		for _, s := range ana {
			a.Record(s.Name, s.Wall)
		}
	}
	p := sp.Record("patch", patWall)
	for _, s := range pat {
		p.Record(s.Name, s.Wall)
	}
	p.SetInt("cfl-blocks", int64(m.CFLBlocks))
	p.SetInt("scratch-blocks", int64(m.ScratchBlocks))
	p.SetInt("scratch-bytes", int64(m.ScratchBytesHarvested))
	p.SetInt("trampolines", int64(m.TrampolineTotal()))
	p.SetInt("tables-cloned", int64(m.ClonedTables))
	p.SetInt("analysis-failures", int64(m.AnalysisFailures))
	p.SetInt("patch-funcs-reencoded", int64(m.PatchFuncsReencoded))
}
