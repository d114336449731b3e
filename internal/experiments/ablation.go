package experiments

import (
	"fmt"
	"strings"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/workload"
)

// AblationRow measures one design choice's contribution by disabling it
// and re-running the block-level empty instrumentation experiment on the
// trampoline-stressed configuration (PPC with .instr beyond the ±32MB
// branch range, where trampoline real estate is scarcest).
type AblationRow struct {
	Name     string
	Overhead float64 // mean across benchmarks
	Coverage float64 // mean across benchmarks
	Traps    int     // total trap trampolines installed
	Pass     int
	Total    int
}

// AblationResult quantifies each technique of the paper against the
// full system: trampoline superblocks (Section 4), retired-section
// scratch space (Section 7), Assumption-2 bound extension and the
// gap-based tail call heuristic (Section 5.1), and runtime RA
// translation versus call emulation (Section 6).
type AblationResult struct {
	Arch arch.Arch
	Rows []AblationRow
}

// Ablation runs the study. Each row is the full jt-mode system with
// exactly one technique removed.
func Ablation(a arch.Arch) (*AblationResult, error) {
	suite, err := workload.SPECSuiteCached(a, false)
	if err != nil {
		return nil, err
	}
	gap := uint64(0)
	if a == arch.PPC {
		gap = ppcInstrGap
	}
	configs := []struct {
		name string
		v    core.Variant
	}{
		{"full system", core.Variant{}},
		{"- superblocks", core.Variant{NoSuperblocks: true}},
		{"- retired-section scratch", core.Variant{NoScratchSections: true}},
		{"- bound extension", core.Variant{StrictJumpTableBounds: true}},
		{"- tail call heuristic", core.Variant{NoTailCallHeuristic: true}},
		{"- superblocks & scratch", core.Variant{NoSuperblocks: true, NoScratchSections: true}},
		{"- CFL placement (every block)", core.Variant{TrampolineEveryBlock: true}},
	}
	res := &AblationResult{Arch: a}
	for _, cfgv := range configs {
		row := AblationRow{Name: cfgv.name, Total: len(suite)}
		var ovh, cov []float64
		for _, p := range suite {
			r := runOne(cfgv.name, p, func(p *workload.Program) (*core.Result, error) {
				return core.Rewrite(p.Binary, core.Options{
					Mode:     core.ModeJT,
					Request:  blockEmpty(),
					Verify:   true,
					InstrGap: gap,
					Variant:  cfgv.v,
				})
			})
			if r.Coverage >= 0 {
				cov = append(cov, r.Coverage)
				row.Traps += r.Traps
			}
			if r.Pass {
				row.Pass++
				ovh = append(ovh, r.Overhead)
			}
		}
		_, row.Overhead = aggregate(ovh)
		_, row.Coverage = aggregate(cov)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the ablation study.
func (r *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — jt mode with one technique removed (%s)\n", r.Arch)
	fmt.Fprintf(&b, "%-30s %10s %10s %6s %s\n", "", "overhead", "coverage", "traps", "pass")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-30s %10s %10s %6d %d/%d\n",
			row.Name, pct(row.Overhead), pct(row.Coverage), row.Traps, row.Pass, row.Total)
	}
	return b.String()
}
