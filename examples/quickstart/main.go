// Quickstart: build a small program with the synthetic toolchain,
// rewrite it with incremental CFG patching (jt mode) inserting
// block-execution counters, run both images in the emulator, and check
// instrumentation integrity: every counter equals the block's true
// execution count.
package main

import (
	"fmt"
	"log"
	"sort"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/asm"
	"icfgpatch/internal/core"
	"icfgpatch/internal/emu"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/rtlib"
)

func main() {
	// 1. Build a program: a loop dispatching i%3 through a jump table.
	b := asm.New(arch.X64, true)
	f := b.Func("main")
	f.SetFrame(32)
	f.Li(arch.R3, 0)
	f.Li(arch.R4, 0)
	top := f.Here()
	f.Li(arch.R7, 3)
	f.Op3(arch.Div, arch.R8, arch.R4, arch.R7)
	f.Op3(arch.Mul, arch.R8, arch.R8, arch.R7)
	f.Op3(arch.Sub, arch.R8, arch.R4, arch.R8)
	cases := []asm.Label{f.NewLabel(), f.NewLabel(), f.NewLabel()}
	def := f.NewLabel()
	join := f.NewLabel()
	f.Switch(arch.R8, arch.R9, arch.R10, cases, def, asm.SwitchOpts{})
	for k, c := range cases {
		f.Bind(c)
		f.OpI(arch.Add, arch.R3, arch.R3, int64(k+1))
		f.BranchTo(join)
	}
	f.Bind(def)
	f.Bind(join)
	f.OpI(arch.Add, arch.R4, arch.R4, 1)
	f.OpI(arch.Sub, arch.R9, arch.R4, 30)
	f.BranchCondTo(arch.LT, arch.R9, top)
	f.Print(arch.R3)
	f.Halt()
	b.SetEntry("main")
	img, _, err := b.Link()
	if err != nil {
		log.Fatal(err)
	}

	// 2. Run the original (with a ground-truth block profile).
	orig, err := emu.Load(img, emu.Options{})
	if err != nil {
		log.Fatal(err)
	}
	origRes, err := orig.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original:  output=%q cycles=%d\n", origRes.Output, origRes.Cycles)

	// 3. Rewrite: every basic block gets an execution counter.
	res, err := core.Rewrite(img, core.Options{
		Mode: core.ModeJT,
		Request: instrument.Request{
			Where:   instrument.BlockEntry,
			Payload: instrument.PayloadCounter,
		},
		Verify: true, // stale original code becomes illegal instructions
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rewritten: %d blocks instrumented, %d jump tables cloned, trampolines %v\n",
		len(res.CounterCells), res.Metrics.ClonedTables, res.Metrics.Trampolines)

	// 4. Run the rewritten binary with the runtime library preloaded.
	lib, err := rtlib.Preload(res.Binary)
	if err != nil {
		log.Fatal(err)
	}
	m, err := emu.Load(res.Binary, emu.Options{Runtime: lib})
	if err != nil {
		log.Fatal(err)
	}
	got, err := m.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rewritten: output=%q cycles=%d (overhead %.2f%%)\n",
		got.Output, got.Cycles, 100*(float64(got.Cycles)/float64(origRes.Cycles)-1))
	if string(got.Output) != string(origRes.Output) {
		log.Fatal("outputs diverged!")
	}

	// 5. Read the counters back (sorted for stable output).
	fmt.Println("block execution counts:")
	points := make([]uint64, 0, len(res.CounterCells))
	for point := range res.CounterCells {
		points = append(points, point)
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	for _, point := range points {
		count, err := m.MemRead(res.CounterCells[point], 8)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  block %#x executed %d times\n", point, count)
	}
}
