package experiments

import (
	"fmt"
	"sort"
	"strings"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/baseline"
	"icfgpatch/internal/core"
	"icfgpatch/internal/emu"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/workload"
)

// diogenesTargetCount scales the paper's 700-of-12644 instrumented
// functions to the generated driver (~5.5%).
const diogenesTargetCount = 70

// DiogenesResult is the Section 9 case study: partial instrumentation of
// the libcuda.so-like driver to find the hidden synchronization function.
type DiogenesResult struct {
	TotalFuncs      int
	Instrumented    int
	MainstreamOK    bool
	MainstreamCost  uint64
	MainstreamTraps int
	OursCost        uint64
	OursTraps       int
	Speedup         float64
	EgalitoErr      string
}

// Diogenes runs the identification test with mainstream-Dyninst-style
// rewriting (SRBI) and with incremental CFG patching. The 60× class
// speedup in the paper comes from trap trampolines: the instrumented
// driver functions are dominated by dispatch code whose one-instruction
// case blocks can only hold traps under per-block trampoline placement.
func Diogenes() (*DiogenesResult, error) {
	p, err := workload.LibcudaCached(arch.X64)
	if err != nil {
		return nil, err
	}
	targets, err := hotTargets(p, diogenesTargetCount)
	if err != nil {
		return nil, err
	}
	req := instrument.Request{
		Where:   instrument.FuncEntry,
		Payload: instrument.PayloadCounter,
		Funcs:   targets,
	}
	res := &DiogenesResult{
		TotalFuncs:   len(p.Binary.FuncSymbols()),
		Instrumented: len(targets),
	}

	// Egalito cannot rewrite the driver at all.
	if _, err := baseline.IRLower(p.Binary, baseline.IRLowerOptions{Request: req}); err != nil {
		res.EgalitoErr = err.Error()
	}

	main, err := baseline.SRBI(p.Binary, baseline.SRBIOptions{Request: req, Verify: true})
	if err != nil {
		return nil, fmt.Errorf("diogenes mainstream rewrite: %w", err)
	}
	res.MainstreamTraps = main.Metrics.TrapCount()
	mRun, err := run(main.Binary, runOpts{maxInstr: 200_000_000})
	if err == nil {
		res.MainstreamOK = true
		res.MainstreamCost = mRun.Cycles
	}

	ours, err := core.Rewrite(p.Binary, core.Options{Mode: core.ModeJT, Request: req, Verify: true})
	if err != nil {
		return nil, fmt.Errorf("diogenes incremental rewrite: %w", err)
	}
	res.OursTraps = ours.Metrics.TrapCount()
	oRun, err := run(ours.Binary, runOpts{})
	if err != nil {
		return nil, fmt.Errorf("diogenes incremental run: %w", err)
	}
	res.OursCost = oRun.Cycles
	if res.OursCost > 0 && res.MainstreamCost > 0 {
		res.Speedup = float64(res.MainstreamCost) / float64(res.OursCost)
	}
	return res, nil
}

// hotTargets selects the instrumented subset the way Diogenes does: it
// profiles the identification test (the call graphs under the public
// synchronization APIs) and instruments the functions that actually
// execute, preferring the dispatch-heavy ones whose tiny blocks force
// trap trampolines under per-block placement.
func hotTargets(p *workload.Program, n int) ([]string, error) {
	var entries []uint64
	name := map[uint64]string{}
	for _, sym := range p.Binary.FuncSymbols() {
		if strings.HasPrefix(sym.Name, "fn") {
			entries = append(entries, sym.Addr)
			name[sym.Addr] = sym.Name
		}
	}
	m, err := emu.Load(p.Binary, emu.Options{ProfileAddrs: entries})
	if err != nil {
		return nil, err
	}
	res, err := m.Run()
	if err != nil {
		return nil, err
	}
	type hot struct {
		addr  uint64
		count uint64
	}
	var hots []hot
	for a, c := range res.Profile {
		if c > 0 {
			hots = append(hots, hot{a, c})
		}
	}
	sort.Slice(hots, func(i, j int) bool { return hots[i].count > hots[j].count })
	var out []string
	for _, h := range hots {
		if len(out) >= n {
			break
		}
		out = append(out, name[h.addr])
	}
	return out, nil
}

// Failures lists failed runs for exit-status reporting.
func (r *DiogenesResult) Failures() []string {
	if r.MainstreamOK {
		return nil
	}
	return []string{"diogenes: mainstream (SRBI) identification run failed"}
}

// Render formats the case study.
func (r *DiogenesResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Diogenes case study (libcuda.so-like, %d functions, %d instrumented)\n",
		r.TotalFuncs, r.Instrumented)
	fmt.Fprintf(&b, "  mainstream (SRBI): %d cycles, %d trap trampolines (ok=%v)\n",
		r.MainstreamCost, r.MainstreamTraps, r.MainstreamOK)
	fmt.Fprintf(&b, "  ours (jt):         %d cycles, %d trap trampolines\n", r.OursCost, r.OursTraps)
	fmt.Fprintf(&b, "  identification test speedup: %.1fx (paper: 60x, 30 minutes -> 30 seconds)\n", r.Speedup)
	fmt.Fprintf(&b, "  Egalito: %s\n", r.EgalitoErr)
	return b.String()
}
