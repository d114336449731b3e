package icfgpatch_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/service"
	"icfgpatch/internal/service/wire"
	"icfgpatch/internal/workload"
)

// Allocation budgets, in allocs/op, for the steady-state paths on the
// libxul-x64 workload (jt, empty payload at block entries). Each is
// 1.2× the count measured when the budget was set (1703, 4919, 550 and
// 2661), so a failure means a real regression in allocation
// discipline: re-examine the change, or lower the budget when an
// optimisation makes room.
const (
	warmPatchAllocBudget    = 2044
	warmAnalyzeAllocBudget  = 5903
	deltaAnalyzeAllocBudget = 660
	coldPatchAllocBudget    = 3193
)

// TestAllocBudget asserts the hot paths stay inside their allocation
// budgets: a warm Patch of a cached analysis, a warm whole-binary
// Analyze, a delta Analyze of a three-function mutation against a
// unit store seeded with the previous version, and the first Patch of
// a fresh analysis. Counts are taken on the serial patch path with the
// world pinned to one proc, where they are deterministic.
func TestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if testing.Short() {
		t.Skip("skipping allocation measurement in short mode")
	}
	const runs = 3
	prog, err := workload.LibxulCached(arch.X64)
	if err != nil {
		t.Fatal(err)
	}
	v1 := prog.Binary
	v2, _, err := workload.MutateVersion(v1, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.Analyze(v1, core.AnalysisConfig{Mode: core.ModeJT})
	if err != nil {
		t.Fatal(err)
	}
	patchOpts := core.Options{Mode: core.ModeJT,
		Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty}}

	check := func(name string, got, budget float64) {
		if got > budget {
			t.Errorf("%s: %.0f allocs/op exceeds budget %.0f", name, got, budget)
		} else {
			t.Logf("%s: %.0f allocs/op within budget %.0f", name, got, budget)
		}
	}
	check("warm_patch", testing.AllocsPerRun(runs, func() {
		res, err := an.Patch(patchOpts)
		if err != nil {
			t.Fatal(err)
		}
		res.Recycle()
	}), warmPatchAllocBudget)
	check("warm_analyze", testing.AllocsPerRun(runs, func() {
		if _, err := core.Analyze(v1, core.AnalysisConfig{Mode: core.ModeJT}); err != nil {
			t.Fatal(err)
		}
	}), warmAnalyzeAllocBudget)

	// The first delta against a store, and the first Patch of a fresh
	// analysis, ARE the measurements, so there is no warm-up run: each
	// run prepares outside the measured window, then counts the one
	// call alone.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	firstCall := func(prepare func() func()) float64 {
		var mallocs uint64
		for i := 0; i < runs; i++ {
			call := prepare()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			call()
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
		}
		return float64(mallocs) / runs
	}
	check("delta_analyze", firstCall(func() func() {
		units := core.NewUnitStore(0)
		if _, err := core.Analyze(v1, core.AnalysisConfig{Mode: core.ModeJT, Units: units}); err != nil {
			t.Fatal(err)
		}
		return func() {
			if _, err := core.Analyze(v2, core.AnalysisConfig{Mode: core.ModeJT, Units: units}); err != nil {
				t.Fatal(err)
			}
		}
	}), deltaAnalyzeAllocBudget)
	// cold_patch: the first Patch of a fresh analysis pays for every
	// function's placement.
	check("cold_patch", firstCall(func() func() {
		fresh, err := core.Analyze(v1, core.AnalysisConfig{Mode: core.ModeJT})
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			res, err := fresh.Patch(patchOpts)
			if err != nil {
				t.Fatal(err)
			}
			res.Recycle()
		}
	}), coldPatchAllocBudget)
}

// TestResultHitAllocBytes: a result-cache hit costs about one sized read
// of the body, one hash, and the write of the cached frame. libxul-x64
// goes through Server.Handler() twice at GOMAXPROCS(1); the second
// request is a hit, and the bytes the process allocates for it — server
// and client alike, the client's read of the reply frame included —
// stay within 1.25 × (body + image) + 64 KiB.
func TestResultHitAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if testing.Short() {
		t.Skip("skipping allocation measurement in short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prog, err := workload.LibxulCached(arch.X64)
	if err != nil {
		t.Fatal(err)
	}
	raw := prog.Binary.Marshal()
	srv := service.New(service.Config{Workers: 1, ResultEntries: 4})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	send := func() (*wire.Reply, []byte) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/rewrite?mode=jt&where=block&payload=empty",
			"application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		reply, image, err := wire.ReadFrame(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return reply, image
	}
	send()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	reply, image := send()
	runtime.ReadMemStats(&after)
	if !reply.ResultHit {
		t.Fatal("second identical request missed the result cache")
	}
	got := after.TotalAlloc - before.TotalAlloc
	budget := uint64(1.25*float64(len(raw)+len(image))) + 64<<10
	if got > budget {
		t.Errorf("result hit allocated %d bytes, budget %d (body %d, image %d)", got, budget, len(raw), len(image))
	} else {
		t.Logf("result hit allocated %d bytes within budget %d (body %d, image %d)", got, budget, len(raw), len(image))
	}
}

// TestLyingContentLengthAllocBytes: a /rewrite POST whose Content-Length
// declares the whole body cap but carries 10 bytes is refused with 400,
// and its read allocates less than 2 MiB: the body buffer runs at most
// one read step ahead of the bytes received.
func TestLyingContentLengthAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	srv := service.New(service.Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodPost, "/rewrite?mode=jt", strings.NewReader("0123456789"))
	req.ContentLength = wire.DefaultMaxBody
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d %q, want 400", rec.Code, rec.Body.String())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("10-byte body declaring %d bytes allocated %d bytes", req.ContentLength, got)
	} else {
		t.Logf("10-byte body declaring %d bytes allocated %d bytes", req.ContentLength, got)
	}
}
