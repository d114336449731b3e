package experiments

import (
	"fmt"
	"strings"
	"time"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/workload"
)

// incrementalK is how many of the benchmark's functions the synthetic
// point release perturbs.
const incrementalK = 3

// IncrementalCell is one (arch, mode) measurement of the delta engine:
// version 1 rewritten cold to warm the function-unit store, then
// version 2 — a K-function mutation — rewritten both cold and via the
// delta path.
type IncrementalCell struct {
	Arch arch.Arch
	Mode core.Mode

	Funcs      int // functions in the binary
	Mutated    int // functions actually perturbed
	Recomputed int // units the delta path rebuilt
	Reused     int // units pulled unchanged from the store

	Cold      time.Duration // full v2 rewrite, empty store
	Delta     time.Duration // v2 analyze+patch against the warm store
	Identical bool          // delta output byte-identical to cold
	Err       string
}

// IncrementalResult is the incremental-rewrite table: every arch ×
// rewriting mode, reporting the delta path's work split and speedup
// against a cold rewrite of the same second version.
type IncrementalResult struct {
	Cells []IncrementalCell
}

// Incremental runs the delta-rewrite experiment for one architecture
// across all three rewriting modes.
func Incremental(a arch.Arch) (*IncrementalResult, error) {
	suite, err := workload.SPECSuiteCached(a, false)
	if err != nil {
		return nil, err
	}
	v1 := suite[0].Binary
	v2, mutated, err := workload.MutateVersion(v1, incrementalK, 3)
	if err != nil {
		return nil, fmt.Errorf("experiments: incremental %s: %w", a, err)
	}

	var gap uint64
	if a == arch.PPC {
		gap = ppcInstrGap
	}
	res := &IncrementalResult{}
	for _, mode := range []core.Mode{core.ModeDir, core.ModeJT, core.ModeFuncPtr} {
		cell := IncrementalCell{Arch: a, Mode: mode, Mutated: len(mutated)}
		opts := core.Options{Mode: mode, Request: blockEmpty(), InstrGap: gap}

		units := core.NewUnitStore(0)
		an1, err := core.Analyze(v1, core.AnalysisConfig{Mode: mode, Units: units})
		if err != nil {
			cell.Err = err.Error()
			res.Cells = append(res.Cells, cell)
			continue
		}
		cell.Funcs = len(an1.FuncUnits)

		start := time.Now()
		cold, err := core.Rewrite(v2, opts)
		cell.Cold = time.Since(start)
		if err != nil {
			cell.Err = err.Error()
			res.Cells = append(res.Cells, cell)
			continue
		}

		start = time.Now()
		an2, err := core.Analyze(v2, core.AnalysisConfig{Mode: mode, Units: units})
		if err != nil {
			cell.Err = err.Error()
			res.Cells = append(res.Cells, cell)
			continue
		}
		delta, err := an2.Patch(opts)
		cell.Delta = time.Since(start)
		if err != nil {
			cell.Err = err.Error()
			res.Cells = append(res.Cells, cell)
			continue
		}
		cell.Recomputed = an2.Metrics.FuncsRecomputed
		cell.Reused = an2.Metrics.FuncsReused
		cell.Identical = string(cold.Binary.Marshal()) == string(delta.Binary.Marshal())
		if !cell.Identical {
			cell.Err = "delta output differs from cold rewrite"
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// Failures lists the cells that errored or diverged, for the CLI's
// graceful-failure report.
func (r *IncrementalResult) Failures() []string {
	var fails []string
	for _, c := range r.Cells {
		if c.Err != "" {
			fails = append(fails, fmt.Sprintf("incremental %s/%s: %s", c.Arch, c.Mode, c.Err))
		}
	}
	return fails
}

// Render formats the incremental-rewrite table.
func (r *IncrementalResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Incremental rewrite (v1 cold, v2 = %d mutated functions)\n", incrementalK)
	fmt.Fprintf(&b, "  %-4s %-9s %6s %8s %7s %10s %10s %8s %s\n",
		"arch", "mode", "funcs", "recomp", "reused", "cold", "delta", "speedup", "identical")
	for _, c := range r.Cells {
		if c.Err != "" {
			fmt.Fprintf(&b, "  %-4s %-9s FAILED: %s\n", c.Arch, c.Mode, c.Err)
			continue
		}
		speedup := "n/a"
		if c.Delta > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(c.Cold)/float64(c.Delta))
		}
		fmt.Fprintf(&b, "  %-4s %-9s %6d %8d %7d %10s %10s %8s %v\n",
			c.Arch, c.Mode, c.Funcs, c.Recomputed, c.Reused,
			c.Cold.Round(10*time.Microsecond), c.Delta.Round(10*time.Microsecond),
			speedup, c.Identical)
	}
	return b.String()
}
