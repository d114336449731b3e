package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/core"
	"icfgpatch/internal/workload"
)

// TestMetricsEndpoint drives the full scrape path: three requests with
// distinct cache paths (cold, result-cache, warm-analysis) against a
// server whose result-cache directory is unwritable, then asserts the
// /metrics text carries the outcome counters, cache-path counters,
// latency histograms, gauges, the persist-failure count, and the TYPE
// of each store total (counter) and level (gauge).
func TestMetricsEndpoint(t *testing.T) {
	raw := testBinaryRaw(t)
	img, err := bin.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}

	// Dir is an existing regular file: every result persist fails, which
	// must be visible in the scrape but never fail a request.
	notADir := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 2, ResultEntries: 8, Dir: notADir})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL}

	full := core.Options{Mode: core.ModeJT, Request: blockEmpty()}
	// Verify changes the result fingerprint but not the analysis, so the
	// second request patches against the cached analysis.
	verify := full
	verify.Verify = true
	part := full
	part.Request.Funcs = []string{img.FuncSymbols()[0].Name}
	// cold, warm-analysis, result-cache, warm-analysis.
	for _, opts := range []core.Options{full, verify, full, part} {
		if _, _, err := cl.Rewrite(context.Background(), raw, opts); err != nil {
			t.Fatal(err)
		}
	}

	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	for _, want := range []string{
		`icfg_requests_total{outcome="ok"} 4`,
		`icfg_cache_path_total{path="cold"} 1`,
		`icfg_cache_path_total{path="result-cache"} 1`,
		`icfg_cache_path_total{path="warm-analysis"} 2`,
		`icfg_request_seconds_count 4`,
		`icfg_queue_wait_seconds_count 4`,
		// Stage histograms count stage runs. The cold and both warm
		// requests each ran the patch stages once; only the cold one
		// ran cfg (a warm request's analysis laps are the cached
		// analysis's — see Response.Metrics), and the result-cache
		// replay ran nothing.
		`icfg_stage_seconds_bucket{stage="plan",le="+Inf"} 3`,
		`icfg_stage_seconds_bucket{stage="layout",le="+Inf"} 3`,
		`icfg_stage_seconds_bucket{stage="emit",le="+Inf"} 3`,
		`icfg_stage_seconds_bucket{stage="cfg",le="+Inf"} 1`,
		`icfg_queue_depth 0`,
		`icfg_workers 2`,
		`icfg_store_hits_total{store="analysis"} 2`,
		`icfg_store_misses_total{store="analysis"} 1`,
		`icfg_store_persist_failures_total{store="result"} 3`,
		`icfg_store_persist_failures_total{store="analysis"} 0`,
		// Cumulative totals are counters with the _total suffix, so
		// rate() works on them; levels stay gauges.
		"# TYPE icfg_store_hits_total counter",
		"# TYPE icfg_store_misses_total counter",
		"# TYPE icfg_store_evictions_total counter",
		"# TYPE icfg_store_disk_hits_total counter",
		"# TYPE icfg_store_persist_failures_total counter",
		"# TYPE icfg_store_entries gauge",
		"# TYPE icfg_queue_depth gauge",
		"# TYPE icfg_batch_queue_depth gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Every patch the server ran encoded its units.
	if v := metricValue(t, text, "icfg_patch_funcs_reencoded_total"); v < 1 {
		t.Errorf("icfg_patch_funcs_reencoded_total = %v, want >= 1", v)
	}

	// The profiling surface rides on the same mux.
	pres, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pres.Body.Close()
	if pres.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d", pres.StatusCode)
	}
}

// metricValue extracts an unlabeled counter's value from a /metrics
// scrape body.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("parsing %s value %q: %v", name, rest, err)
		}
		return v
	}
	t.Fatalf("/metrics missing %s", name)
	return 0
}

// waitOutcome polls the server's outcome counters until the label
// reaches want or the deadline passes.
func waitOutcome(t *testing.T, s *Server, label string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := s.Stats().Outcomes[label]; got >= want {
			if got != want {
				t.Fatalf("outcome %q = %d, want %d", label, got, want)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("outcome %q never reached %d: %v", label, want, s.Stats().Outcomes)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTimeoutMidPipelineCountsTimeout wedges the worker between Analyze
// and Patch past the server-side deadline: the analysis single-flight
// entry is owned by a gated test build, and the gate opens only after
// the request's timeout has expired. The failure must surface as
// DeadlineExceeded and be counted under the timeout outcome, not error.
func TestTimeoutMidPipelineCountsTimeout(t *testing.T) {
	raw := testBinaryRaw(t)
	img, err := bin.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	dequeued := make(chan struct{}, 1)
	testHookDequeue = func() { dequeued <- struct{}{} }
	defer func() { testHookDequeue = nil }()

	const timeout = 20 * time.Millisecond
	s := New(Config{Workers: 1, Timeout: timeout})
	defer s.Shutdown(context.Background())

	key := jtKey(t, raw)
	started := make(chan struct{})
	gate := make(chan struct{})
	go s.analyses.GetOrCreate(key, func() (*core.Analysis, error) {
		close(started)
		<-gate
		return core.Analyze(img, core.AnalysisConfig{Mode: core.ModeJT})
	})
	<-started

	result := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{Raw: raw, Opts: core.Options{Mode: core.ModeJT, Request: blockEmpty()}})
		result <- err
	}()
	select {
	case <-dequeued:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the job")
	}
	// The request's deadline starts at dequeue; let it expire while the
	// worker waits on the gated analysis, then release.
	time.Sleep(4 * timeout)
	close(gate)

	if err := <-result; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	waitOutcome(t, s, outcomeTimeout, 1)
	if st := s.Stats(); st.Outcomes[outcomeError] != 0 {
		t.Fatalf("timeout misclassified as error: %v", st.Outcomes)
	}
}

// TestDisconnectDuringQueueWaitCountsCanceled covers the abandoned-job
// path: a client gives up while its request is still queued behind a
// wedged worker. Submit returns the client's context error immediately,
// and when the worker eventually dequeues the dead job it must count it
// as canceled — the operational signal that clients are disconnecting,
// distinct from server-side errors.
func TestDisconnectDuringQueueWaitCountsCanceled(t *testing.T) {
	raw := testBinaryRaw(t)
	img, err := bin.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	dequeued := make(chan struct{}, 4)
	testHookDequeue = func() { dequeued <- struct{}{} }
	defer func() { testHookDequeue = nil }()

	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())

	key := jtKey(t, raw)
	started := make(chan struct{})
	gate := make(chan struct{})
	go s.analyses.GetOrCreate(key, func() (*core.Analysis, error) {
		close(started)
		<-gate
		return core.Analyze(img, core.AnalysisConfig{Mode: core.ModeJT})
	})
	<-started

	opts := core.Options{Mode: core.ModeJT, Request: blockEmpty()}
	first := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{Raw: raw, Opts: opts})
		first <- err
	}()
	select {
	case <-dequeued:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the first job")
	}

	// Second job queues behind the wedged worker; its client disconnects.
	ctx, cancel := context.WithCancel(context.Background())
	second := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, Request{Raw: raw, Opts: opts})
		second <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("second job never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-second; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning client: err = %v, want Canceled", err)
	}

	// Release the worker: the first job completes, then the abandoned
	// job is dequeued, observed dead, and counted as canceled.
	close(gate)
	if err := <-first; err != nil {
		t.Fatalf("first job: %v", err)
	}
	waitOutcome(t, s, outcomeCanceled, 1)
	waitOutcome(t, s, outcomeOK, 1)
}

// TestOutcomeSnapshotInStats checks every rejection path lands in the
// ServerStats outcome map alongside the legacy counters.
func TestOutcomeSnapshotInStats(t *testing.T) {
	raw := testBinaryRaw(t)
	s := New(Config{Workers: 1, Timeout: time.Nanosecond})
	if _, err := s.Submit(context.Background(), Request{Raw: raw, Opts: core.Options{Mode: core.ModeJT, Request: blockEmpty()}}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), Request{Raw: raw, Opts: core.Options{Mode: core.ModeJT, Request: blockEmpty()}}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("err = %v, want ErrShuttingDown", err)
	}
	st := s.Stats()
	if st.Outcomes[outcomeTimeout] != 1 || st.Outcomes[outcomeShutdown] != 1 {
		t.Fatalf("outcomes = %v, want timeout=1 shutdown=1", st.Outcomes)
	}
	if st.Failed != 1 {
		t.Fatalf("failed = %d, want 1", st.Failed)
	}
}

// TestStatsMatchOutcomes checks that /stats and icfg_requests_total are
// one count: a request refused at the door after Shutdown is Rejected
// as well as outcome="shutdown", and Served+Failed+Rejected is every
// finished submission.
func TestStatsMatchOutcomes(t *testing.T) {
	raw := testBinaryRaw(t)
	s := New(Config{Workers: 1})
	opts := core.Options{Mode: core.ModeJT, Request: blockEmpty()}
	if _, err := s.Submit(context.Background(), Request{Raw: raw, Opts: opts}); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), Request{Raw: raw, Opts: opts}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("err = %v, want ErrShuttingDown", err)
	}
	st := s.Stats()
	if st.Rejected != 1 || st.Outcomes[outcomeShutdown] != 1 {
		t.Errorf("rejected = %d, outcomes = %v; want the shutdown rejection in both", st.Rejected, st.Outcomes)
	}
	var sum uint64
	for _, n := range st.Outcomes {
		sum += n
	}
	if got := st.Served + st.Failed + st.Rejected; got != sum {
		t.Errorf("served+failed+rejected = %d, outcomes sum to %d (%v)", got, sum, st.Outcomes)
	}
}

// TestTraceRoundTripOverHTTP checks the per-request span tree reaches
// the client: stage names and the cache-path attribute must appear in
// the rendered text, and an untraced request must carry none.
func TestTraceRoundTripOverHTTP(t *testing.T) {
	raw := testBinaryRaw(t)
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	opts := core.Options{Mode: core.ModeJT, Request: blockEmpty()}
	cl := &Client{BaseURL: ts.URL, Trace: true}
	_, reply, err := cl.Rewrite(context.Background(), raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rewrite", "analyze", "patch", core.StageCFG, core.StageLayout, "path=cold"} {
		if !strings.Contains(reply.TraceText, want) {
			t.Errorf("trace missing %q:\n%s", want, reply.TraceText)
		}
	}

	plain := &Client{BaseURL: ts.URL}
	_, reply2, err := plain.Rewrite(context.Background(), raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	if reply2.TraceText != "" {
		t.Errorf("untraced request carried a trace:\n%s", reply2.TraceText)
	}
	// Warm repeat with tracing: the analyze span must be marked cached.
	_, reply3, err := cl.Rewrite(context.Background(), raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reply3.TraceText, "cached=true") {
		t.Errorf("warm trace not marked cached:\n%s", reply3.TraceText)
	}
}

// TestTraceMatchesRecord checks that a traced request's span tree is a
// rendering of its record, along the cold, result-cache, warm-analysis
// and delta paths: each stage span lasts exactly the record's lap for
// that stage and each parent the sum of its laps, the patch span carries
// the record's counters, cached=true marks exactly the analysis hits,
// and a result hit has no pipeline children.
func TestTraceMatchesRecord(t *testing.T) {
	p, err := workload.Generate(arch.X64, false, testProfile())
	if err != nil {
		t.Fatal(err)
	}
	v1 := p.Binary
	v2, _, err := workload.MutateVersion(v1, 2, 13)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, ResultEntries: 8})
	defer s.Shutdown(context.Background())

	full := core.Options{Mode: core.ModeJT, Request: blockEmpty()}
	verify := full
	verify.Verify = true
	for _, step := range []struct {
		b    *bin.Binary
		opts core.Options
		path string
	}{
		{v1, full, PathCold},
		{v1, full, PathResultCache},
		{v1, verify, PathWarmAnalysis},
		{v2, full, PathDelta},
	} {
		resp, err := s.Submit(context.Background(), Request{Binary: step.b, Opts: step.opts, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		rec := &resp.Reply
		if got := ReplyCachePath(rec); got != step.path {
			t.Fatalf("cache path = %s, want %s", got, step.path)
		}
		root := resp.Trace
		if v, _ := root.Attr("path"); v != step.path {
			t.Errorf("%s: root path=%q", step.path, v)
		}
		ana, pat := root.Find("analyze"), root.Find("patch")
		if rec.ResultHit {
			if ana != nil || pat != nil {
				t.Errorf("%s: replay rendered pipeline spans:\n%s", step.path, root.Render())
			}
			continue
		}
		if ana == nil || pat == nil {
			t.Fatalf("%s: missing analyze/patch span:\n%s", step.path, root.Render())
		}
		if cached, _ := ana.Attr("cached"); (cached == "true") != rec.AnalysisHit {
			t.Errorf("%s: cached=%q with AnalysisHit=%v", step.path, cached, rec.AnalysisHit)
		}
		var anaSum, patSum time.Duration
		for _, st := range rec.Metrics.Stages {
			analysisStage := st.Name == core.StageCFG || st.Name == core.StageFuncPtr
			sp := root.Find(st.Name)
			if analysisStage && rec.AnalysisHit {
				if sp != nil {
					t.Errorf("%s: cached analysis rendered its %s lap", step.path, st.Name)
				}
				continue
			}
			if sp == nil || sp.Dur() != st.Wall {
				t.Errorf("%s: stage %s span %v, record %v", step.path, st.Name, sp.Dur(), st.Wall)
			}
			if analysisStage {
				anaSum += st.Wall
			} else {
				patSum += st.Wall
			}
		}
		if ana.Dur() != anaSum || pat.Dur() != patSum {
			t.Errorf("%s: analyze %v / patch %v, laps sum to %v / %v", step.path, ana.Dur(), pat.Dur(), anaSum, patSum)
		}
		m := rec.Metrics
		for key, want := range map[string]int{
			"cfl-blocks":            m.CFLBlocks,
			"scratch-blocks":        m.ScratchBlocks,
			"scratch-bytes":         int(m.ScratchBytesHarvested),
			"trampolines":           m.TrampolineTotal(),
			"tables-cloned":         m.ClonedTables,
			"analysis-failures":     m.AnalysisFailures,
			"patch-funcs-reencoded": m.PatchFuncsReencoded,
		} {
			if v, ok := pat.Attr(key); !ok || v != strconv.Itoa(want) {
				t.Errorf("%s: patch %s=%q, record %d", step.path, key, v, want)
			}
		}
	}
}
