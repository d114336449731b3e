// Partial instrumentation, Diogenes style (paper Section 9): instrument
// a small subset of a large driver-like library's functions with entry
// counters, leaving the other ~1100 functions untouched — the capability
// all-or-nothing IR lowering cannot offer. The example also shows the
// trap-trampoline gap between per-block placement (SRBI) and trampoline
// placement analysis.
package main

import (
	"fmt"
	"log"
	"sort"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/baseline"
	"icfgpatch/internal/core"
	"icfgpatch/internal/emu"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/rtlib"
	"icfgpatch/internal/workload"
)

func main() {
	p, err := workload.Libcuda(arch.X64)
	if err != nil {
		log.Fatal(err)
	}
	total := len(p.Binary.FuncSymbols())
	targets := workload.DiogenesTargets(p, 70)
	fmt.Printf("libcuda-like driver: %d functions; instrumenting %d\n", total, len(targets))

	req := instrument.Request{
		Where:   instrument.FuncEntry,
		Payload: instrument.PayloadCounter,
		Funcs:   targets,
	}

	// IR lowering refuses the library outright.
	if _, err := baseline.IRLower(p.Binary, baseline.IRLowerOptions{Request: req}); err != nil {
		fmt.Println("IR lowering:", err)
	}

	// Incremental CFG patching instruments just the subset.
	ours, err := core.Rewrite(p.Binary, core.Options{Mode: core.ModeJT, Request: req, Verify: true})
	if err != nil {
		log.Fatal(err)
	}
	srbi, err := baseline.SRBI(p.Binary, baseline.SRBIOptions{Request: req, Verify: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trap trampolines: ours=%d, per-block placement=%d\n",
		ours.Metrics.TrapCount(), srbi.Metrics.TrapCount())

	lib, err := rtlib.Preload(ours.Binary)
	if err != nil {
		log.Fatal(err)
	}
	m, err := emu.Load(ours.Binary, emu.Options{Runtime: lib})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		log.Fatal(err)
	}

	// The entry counters identify the hot internal functions — the
	// Diogenes workflow for finding the hidden synchronization routine.
	cells := namedCells(ours, targets)
	names := make([]string, 0, len(cells))
	for name := range cells {
		names = append(names, name)
	}
	sort.Strings(names)
	shown := 0
	for _, name := range names {
		count, err := m.MemRead(cells[name], 8)
		if err != nil {
			log.Fatal(err)
		}
		if count > 0 && shown < 10 {
			fmt.Printf("  %s entered %d times\n", name, count)
			shown++
		}
	}
}

// namedCells maps instrumented function names to their counter cells.
// CounterCells is keyed by original entry address; resolve names through
// the binary's symbol table.
func namedCells(res *core.Result, targets []string) map[string]uint64 {
	out := map[string]uint64{}
	for point, cell := range res.CounterCells {
		if f, ok := res.Binary.FuncAt(point); ok && f.Addr == point {
			out[f.Name] = cell
		}
	}
	_ = targets
	return out
}
