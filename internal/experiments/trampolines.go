package experiments

import (
	"fmt"
	"strings"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/workload"
)

// TrampolineDistribution aggregates, per architecture and mode, how many
// trampolines of each class (Table 2 forms plus multi-hop and trap) the
// rewriter installed across the SPEC-like suite — the mechanism behind
// every overhead number in Table 3.
type TrampolineDistribution struct {
	Arch arch.Arch
	Gap  uint64
	// Rows maps mode name to class counts.
	Rows map[string]map[arch.TrampolineClass]int
}

// Trampolines runs the distribution study for one architecture, with
// the same PPC .instr gap as Table 3.
func Trampolines(a arch.Arch) (*TrampolineDistribution, error) {
	suite, err := workload.SPECSuiteCached(a, false)
	if err != nil {
		return nil, err
	}
	gap := uint64(0)
	if a == arch.PPC {
		gap = ppcInstrGap
	}
	res := &TrampolineDistribution{Arch: a, Gap: gap, Rows: map[string]map[arch.TrampolineClass]int{}}
	for _, mode := range []core.Mode{core.ModeDir, core.ModeJT, core.ModeFuncPtr} {
		counts := map[arch.TrampolineClass]int{}
		for _, p := range suite {
			rw, err := core.Rewrite(p.Binary, core.Options{Mode: mode, Request: blockEmpty(), Verify: true, InstrGap: gap})
			if err != nil {
				continue
			}
			for class, n := range rw.Metrics.Trampolines {
				counts[class] += n
			}
		}
		res.Rows[mode.String()] = counts
	}
	return res, nil
}

// Render formats the distribution.
func (t *TrampolineDistribution) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Trampoline class distribution (%s, gap %d MiB)\n", t.Arch, t.Gap>>20)
	classes := []arch.TrampolineClass{arch.TrampShort, arch.TrampLong, arch.TrampLongSpill, arch.TrampMulti, arch.TrampTrap}
	fmt.Fprintf(&b, "%-10s", "")
	for _, c := range classes {
		fmt.Fprintf(&b, " %10s", c)
	}
	b.WriteString("\n")
	for _, mode := range []string{"dir", "jt", "func-ptr"} {
		fmt.Fprintf(&b, "%-10s", mode)
		for _, c := range classes {
			fmt.Fprintf(&b, " %10d", t.Rows[mode][c])
		}
		b.WriteString("\n")
	}
	return b.String()
}
