package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/workload"
)

// concurrentProfile is the shared workload profile both goroutines
// build; generation is deterministic, so two independent builds must
// produce identical binaries.
func concurrentProfile() workload.Profile {
	return workload.Profile{
		Name: "concurrent", Seed: 42, Lang: "c++",
		Funcs: 18, SwitchFrac: 0.4, SpillFrac: 0.2,
		TinyFrac: 0.15, Exceptions: true, StackCalls: true, Iters: 8,
	}
}

// TestConcurrentRewriteIndependentBinaries runs two goroutines, each
// rewriting its own independently built binary of the same workload
// profile. Under -race this proves the rewrite path carries no shared
// mutable state; the Marshal comparison proves scheduling cannot leak
// into the output.
func TestConcurrentRewriteIndependentBinaries(t *testing.T) {
	opts := Options{
		Mode:    ModeJT,
		Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty},
		Verify:  true,
	}
	outs := make([][]byte, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p, err := workload.Generate(arch.X64, false, concurrentProfile())
			if err != nil {
				errs[g] = err
				return
			}
			res, err := Rewrite(p.Binary, opts)
			if err != nil {
				errs[g] = err
				return
			}
			outs[g] = res.Binary.Marshal()
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if string(outs[0]) != string(outs[1]) {
		t.Error("concurrent rewrites of identical binaries produced different images")
	}
}

// TestConcurrentRewriteSharedBinary rewrites the SAME binary from
// several goroutines at once: Rewrite's contract is that the input is
// shared read-only, so concurrent callers must neither race (-race
// enforced) nor observe each other in their outputs.
func TestConcurrentRewriteSharedBinary(t *testing.T) {
	p, err := workload.Generate(arch.A64, true, concurrentProfile())
	if err != nil {
		t.Fatal(err)
	}
	before := p.Binary.Marshal()
	const goroutines = 4
	outs := make([][]byte, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := Rewrite(p.Binary, Options{
				Mode:    ModeFuncPtr,
				Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadCounter},
				Verify:  true,
			})
			if err != nil {
				errs[g] = err
				return
			}
			outs[g] = res.Binary.Marshal()
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for g := 1; g < goroutines; g++ {
		if string(outs[g]) != string(outs[0]) {
			t.Errorf("goroutine %d produced a different image", g)
		}
	}
	if string(p.Binary.Marshal()) != string(before) {
		t.Error("concurrent rewriting mutated the shared input binary")
	}
}

// TestConcurrentPatchSharedAnalysis patches shared analyses from eight
// goroutines at once, the service's warm path: the lazy placement memo
// (Analysis.placement), the lazy liveness behind it (Analysis.scratchAt),
// the item-slab and emit-buffer pools, and the read-only graph are all
// touched concurrently. A second analysis, of a mutated version, is
// built through the same unit store before any patch runs, so the two
// analyses share the unchanged functions' units and with them the
// placement memos. Requests mix function and block entry with empty and
// counter payloads. The x64 case never computes liveness; the ppc case,
// with a 40 MiB gap that puts the relocated code beyond the short
// branch, computes it from the goroutines' trampolines. Every image
// must equal the Rewrite of the same binary and options; -race checks
// the sharing.
func TestConcurrentPatchSharedAnalysis(t *testing.T) {
	for _, tc := range []struct {
		a   arch.Arch
		gap uint64
	}{{arch.X64, 0}, {arch.PPC, 40 << 20}} {
		t.Run(tc.a.String(), func(t *testing.T) { concurrentPatchShared(t, tc.a, tc.gap) })
	}
}

func concurrentPatchShared(t *testing.T, a arch.Arch, gap uint64) {
	p, err := workload.Generate(a, true, concurrentProfile())
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := workload.MutateVersion(p.Binary, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	bins := []*bin.Binary{p.Binary, v2}
	var reqs []instrument.Request
	for _, where := range []instrument.Point{instrument.FuncEntry, instrument.BlockEntry} {
		for _, payload := range []instrument.Payload{instrument.PayloadEmpty, instrument.PayloadCounter} {
			reqs = append(reqs, instrument.Request{Where: where, Payload: payload})
		}
	}
	optsFor := func(r int) Options {
		return Options{Mode: ModeJT, Request: reqs[r], Verify: true, InstrGap: gap}
	}
	// The x64 case recycles its results, racing the emit-buffer pool. The
	// ppc case keeps them: a recycled buffer taken by another goroutine
	// orders that goroutine after the liveness its trampolines computed,
	// which would hide a race on it.
	recycle := a == arch.X64
	// want[v][r] is the Rewrite of version v under request r.
	want := make([][][]byte, len(bins))
	for v, b := range bins {
		for r := range reqs {
			res, err := Rewrite(b, optsFor(r))
			if err != nil {
				t.Fatal(err)
			}
			want[v] = append(want[v], res.Binary.Marshal())
		}
	}

	units := NewUnitStore(0)
	ans := make([]*Analysis, len(bins))
	for v, b := range bins {
		if ans[v], err = Analyze(b, AnalysisConfig{Mode: ModeJT, Units: units}); err != nil {
			t.Fatal(err)
		}
	}
	if ans[1].Metrics.FuncsReused == 0 {
		t.Fatal("the second analysis reused no unit: nothing is shared between the analyses")
	}

	const goroutines = 8
	errs := make([]error, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			// Every goroutine patches both analyses, in an order that
			// alternates with g, under one of the four requests.
			r := g % len(reqs)
			for k := range bins {
				v := (g + k) % len(bins)
				res, err := ans[v].Patch(optsFor(r))
				if err != nil {
					errs[g] = err
					return
				}
				got := res.Binary.Marshal()
				if recycle {
					res.Recycle() // hand the emit buffers to the other goroutines
				}
				if !bytes.Equal(got, want[v][r]) {
					errs[g] = fmt.Errorf("version %d, request %+v: image differs from Rewrite", v, reqs[r])
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
	if a == arch.PPC {
		lazy := 0
		for _, u := range ans[0].FuncUnits {
			if u.place.lv != nil {
				lazy++
			}
		}
		if lazy == 0 {
			t.Error("no goroutine computed a function's liveness: the lazy path went unraced")
		}
	}
}
