package service

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/core"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/store"
	"icfgpatch/internal/workload"
)

func blockEmpty() instrument.Request {
	return instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty}
}

// testProfile is a mid-size deterministic workload: large enough that a
// rewrite is real work, small enough for tight test loops.
func testProfile() workload.Profile {
	return workload.Profile{
		Name: "served", Seed: 7, Lang: "c++",
		Funcs: 24, SwitchFrac: 0.35, SpillFrac: 0.2,
		TinyFrac: 0.1, Exceptions: true, StackCalls: true, Iters: 8,
	}
}

func testBinaryRaw(t testing.TB) []byte {
	t.Helper()
	p, err := workload.Generate(arch.X64, false, testProfile())
	if err != nil {
		t.Fatal(err)
	}
	return p.Binary.Marshal()
}

// TestServe32ConcurrentClients hammers one served binary from 32
// clients. Every response must be byte-identical to a cold local
// Rewrite of the same request, and the analysis store must have
// single-flighted: one miss, everything else warm.
func TestServe32ConcurrentClients(t *testing.T) {
	raw := testBinaryRaw(t)
	img, err := bin.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}

	// Two request shapes alternate, sharing one analysis.
	var names []string
	for _, sym := range img.FuncSymbols() {
		names = append(names, sym.Name)
	}
	optsFull := core.Options{Mode: core.ModeJT, Request: blockEmpty()}
	optsPart := core.Options{Mode: core.ModeJT, Request: blockEmpty()}
	optsPart.Request.Funcs = names[:len(names)/2]
	wantFull, err := core.Rewrite(img, optsFull)
	if err != nil {
		t.Fatal(err)
	}
	wantPart, err := core.Rewrite(img, optsPart)
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool][]byte{true: wantFull.Binary.Marshal(), false: wantPart.Binary.Marshal()}

	s := New(Config{Workers: 4, QueueDepth: 256, AnalysisEntries: 4})
	defer s.Shutdown(context.Background())

	const clients, perClient = 32, 4
	var wg sync.WaitGroup
	var analysisHits atomic.Uint64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				full := (c+i)%2 == 0
				opts := optsPart
				if full {
					opts = optsFull
				}
				resp, err := s.Submit(context.Background(), Request{Raw: raw, Opts: opts})
				if err != nil {
					t.Errorf("client %d req %d: %v", c, i, err)
					return
				}
				if !bytes.Equal(resp.Image, want[full]) {
					t.Errorf("client %d req %d: served image differs from local rewrite", c, i)
					return
				}
				if resp.AnalysisHit {
					analysisHits.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()

	st := s.Stats()
	if st.Served != clients*perClient {
		t.Fatalf("served = %d, want %d", st.Served, clients*perClient)
	}
	if st.Analyses.Misses != 1 {
		t.Fatalf("analysis store misses = %d, want 1 (single-flight)", st.Analyses.Misses)
	}
	if got := analysisHits.Load(); got != clients*perClient-1 {
		t.Fatalf("analysis hits = %d, want %d", got, clients*perClient-1)
	}
}

// TestQueueFullRejection saturates a one-worker, depth-one queue and
// checks the backpressure path rejects cleanly while accepted requests
// still complete. The worker is wedged deterministically on a gated
// analysis build, so the saturated state is observable, not a race.
func TestQueueFullRejection(t *testing.T) {
	raw := testBinaryRaw(t)
	img, err := bin.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	dequeued := make(chan struct{}, 8)
	testHookDequeue = func() { dequeued <- struct{}{} }
	defer func() { testHookDequeue = nil }()

	s := New(Config{Workers: 1, QueueDepth: 1})
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

	// Job A occupies the worker — the dequeue hook confirms the worker
	// holds it (and then wedges on the gated entry) — and job B fills
	// the queue's single slot.
	opts := core.Options{Mode: core.ModeJT, Request: blockEmpty()}
	results := make(chan error, 2)
	submit := func() {
		go func() {
			_, err := s.Submit(context.Background(), Request{Raw: raw, Opts: opts})
			results <- err
		}()
	}
	submit()
	select {
	case <-dequeued:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the first job")
	}
	submit()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %d queued", s.Stats().Queued)
		}
		time.Sleep(time.Millisecond)
	}

	// Worker busy + queue full: the next submission must be rejected
	// immediately with the backpressure error.
	if _, err := s.Submit(context.Background(), Request{Raw: raw, Opts: opts}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("saturated submit: err = %v, want ErrQueueFull", err)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected counter = %d, want 1", st.Rejected)
	}

	// The two accepted requests still complete once the worker is
	// released.
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("accepted request %d failed: %v", i, err)
		}
	}
	if st := s.Stats(); st.Served != 2 {
		t.Fatalf("served = %d, want 2", st.Served)
	}
}

// TestGracefulShutdown verifies the drain contract deterministically:
// the in-flight request completes, queued requests get ErrShuttingDown,
// later submissions are rejected, and Shutdown itself returns. The
// single worker is wedged via the analysis store's single-flight — the
// test starts a gated build for the job's key, so the worker's
// GetOrCreate blocks on the in-flight entry until the gate opens.
func TestGracefulShutdown(t *testing.T) {
	raw := testBinaryRaw(t)
	img, err := bin.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, QueueDepth: 8})

	key := jtKey(t, raw)
	started := make(chan struct{})
	gate := make(chan struct{})
	buildDone := make(chan struct{})
	go func() {
		defer close(buildDone)
		_, _, err := s.analyses.GetOrCreate(key, func() (*core.Analysis, error) {
			close(started)
			<-gate
			return core.Analyze(img, core.AnalysisConfig{Mode: core.ModeJT})
		})
		if err != nil {
			t.Errorf("gated build: %v", err)
		}
	}()
	<-started // the in-flight entry now owns the key

	const jobs = 4
	var wg sync.WaitGroup
	var okN, downN atomic.Uint64
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Submit(context.Background(), Request{Raw: raw, Opts: core.Options{Mode: core.ModeJT, Request: blockEmpty()}})
			switch {
			case err == nil:
				okN.Add(1)
			case errors.Is(err, ErrShuttingDown):
				downN.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}

	// Wait until the worker holds one job (blocked on the gated entry)
	// and the other three sit in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Queued != jobs-1 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never settled: %d queued", s.Stats().Queued)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	if q := s.Stats().Queued; q != jobs-1 {
		t.Fatalf("queue not stable: %d queued", q)
	}

	// Shutdown must block on the wedged in-flight request; release the
	// gate only after the drain signal is closed, so the worker cannot
	// pick up a second job.
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown(context.Background()) }()
	select {
	case <-s.pool.Drain():
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown never signalled the drain")
	}
	close(gate)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	<-buildDone

	if okN.Load() != 1 {
		t.Fatalf("in-flight requests completed = %d, want 1", okN.Load())
	}
	if downN.Load() != jobs-1 {
		t.Fatalf("drained rejections = %d, want %d", downN.Load(), jobs-1)
	}
	if _, err := s.Submit(context.Background(), Request{Raw: raw, Opts: core.Options{Mode: core.ModeJT, Request: blockEmpty()}}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown submit: %v", err)
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestRequestTimeout exercises the per-request deadline at the
// processing seams.
func TestRequestTimeout(t *testing.T) {
	raw := testBinaryRaw(t)
	s := New(Config{Workers: 1, Timeout: time.Nanosecond})
	defer s.Shutdown(context.Background())
	_, err := s.Submit(context.Background(), Request{Raw: raw, Opts: core.Options{Mode: core.ModeJT, Request: blockEmpty()}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if st := s.Stats(); st.Failed != 1 {
		t.Fatalf("failed counter = %d", st.Failed)
	}
}

// TestCallerCancellation verifies a dead caller context is honoured.
func TestCallerCancellation(t *testing.T) {
	raw := testBinaryRaw(t)
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Submit(ctx, Request{Raw: raw, Opts: core.Options{Mode: core.ModeJT, Request: blockEmpty()}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

// TestHTTPRoundTrip drives the full wire path: client → HTTP → queue →
// store → patch → framed reply, twice, checking the second response is
// a result-cache hit with identical bytes.
func TestHTTPRoundTrip(t *testing.T) {
	raw := testBinaryRaw(t)
	img, err := bin.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Mode: core.ModeJT, Request: blockEmpty(), Verify: true}
	local, err := core.Rewrite(img, opts)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 2, ResultEntries: 8})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL}

	image1, reply1, err := cl.Rewrite(context.Background(), raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image1, local.Binary.Marshal()) {
		t.Fatal("served image differs from local rewrite")
	}
	if reply1.ResultHit {
		t.Fatal("first request cannot be a result hit")
	}
	if reply1.Stats.InstrumentedFuncs != local.Stats.InstrumentedFuncs {
		t.Fatalf("stats diverged: %d vs %d", reply1.Stats.InstrumentedFuncs, local.Stats.InstrumentedFuncs)
	}

	image2, reply2, err := cl.Rewrite(context.Background(), raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reply2.ResultHit {
		t.Fatal("second identical request missed the result cache")
	}
	if !bytes.Equal(image1, image2) {
		t.Fatal("cached image differs")
	}

	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Served != 2 || st.Results.Hits != 1 {
		t.Fatalf("server stats: %+v", st)
	}
}

// TestResultCachePersistence restarts the service over the same disk
// directory and expects the repeat request to be served from disk
// without any analysis or patch work, with the whole record intact. A
// .res file that is not a frame — garbage, or the gob entry an older
// build wrote — is recomputed and never served.
func TestResultCachePersistence(t *testing.T) {
	dir := t.TempDir()
	raw := testBinaryRaw(t)
	opts := core.Options{Mode: core.ModeJT, Request: blockEmpty()}

	s1 := New(Config{Workers: 1, ResultEntries: 4, Dir: dir})
	resp1, err := s1.Submit(context.Background(), Request{Raw: raw, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{Workers: 1, ResultEntries: 4, Dir: dir})
	defer s2.Shutdown(context.Background())
	resp2, err := s2.Submit(context.Background(), Request{Raw: raw, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.ResultHit {
		t.Fatal("restarted service did not warm from disk")
	}
	if !bytes.Equal(resp1.Image, resp2.Image) {
		t.Fatal("persisted image differs")
	}
	if !reflect.DeepEqual(resp1.Stats, resp2.Stats) || !reflect.DeepEqual(resp1.Metrics, resp2.Metrics) ||
		resp1.MetricsText != resp2.MetricsText {
		t.Fatalf("persisted record differs:\n%+v\n%+v", resp1.Reply, resp2.Reply)
	}
	if st := s2.Stats(); st.Analyses.Misses != 0 {
		t.Fatalf("disk hit still ran analysis: %s", st.Analyses)
	}

	key, _, err := requestKeys(store.Hash(raw), opts)
	if err != nil {
		t.Fatal(err)
	}
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(struct {
		Image   []byte
		Stats   core.Stats
		Metrics core.Metrics
	}{Image: []byte("stale"), Stats: resp1.Stats, Metrics: resp1.Metrics}); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"garbage": []byte("not a frame"), "gob": old.Bytes()} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, key+".res"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := New(Config{Workers: 1, ResultEntries: 4, Dir: dir})
		resp, err := s.Submit(context.Background(), Request{Raw: raw, Opts: opts})
		s.Shutdown(context.Background())
		if err != nil {
			t.Fatalf("%s .res: %v", name, err)
		}
		if resp.ResultHit || !bytes.Equal(resp.Image, resp1.Image) {
			t.Errorf("%s .res: served it (result hit %v, image equal %v)", name, resp.ResultHit, bytes.Equal(resp.Image, resp1.Image))
		}
	}
}

// TestTruncatedResultFileRecomputes: a persisted result cut inside its
// image no longer matches the image length its frame declares, so the
// store drops it and the repeat request recomputes instead of serving a
// truncated rewrite.
func TestTruncatedResultFileRecomputes(t *testing.T) {
	dir := t.TempDir()
	raw := testBinaryRaw(t)
	opts := core.Options{Mode: core.ModeJT, Request: blockEmpty()}
	submit := func(cfg Config) *Response {
		t.Helper()
		s := New(cfg)
		defer s.Shutdown(context.Background())
		resp, err := s.Submit(context.Background(), Request{Raw: raw, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := submit(Config{Workers: 1, ResultEntries: 4, Dir: dir})
	key, _, err := requestKeys(store.Hash(raw), opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+".res")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const cut = 100
	if len(first.Image) <= cut {
		t.Fatalf("image of %d bytes is too short to cut inside", len(first.Image))
	}
	if err := os.WriteFile(path, data[:len(data)-cut], 0o644); err != nil {
		t.Fatal(err)
	}
	resp := submit(Config{Workers: 1, ResultEntries: 4, Dir: dir})
	fresh := submit(Config{Workers: 1})
	if resp.ResultHit {
		t.Errorf("served the cut file as a result hit (%d-byte image)", len(resp.Image))
	}
	if !bytes.Equal(resp.Image, fresh.Image) {
		t.Errorf("image after the cut file: %d bytes, a fresh server's: %d", len(resp.Image), len(fresh.Image))
	}
}

// TestFlippedResultFileRecomputes: a persisted result of the right
// length with one bit flipped inside its image still decodes, but its
// digest trailer no longer matches, so the store drops it and the
// repeat request recomputes instead of serving the damaged rewrite.
func TestFlippedResultFileRecomputes(t *testing.T) {
	dir := t.TempDir()
	raw := testBinaryRaw(t)
	opts := core.Options{Mode: core.ModeJT, Request: blockEmpty()}
	submit := func(cfg Config) *Response {
		t.Helper()
		s := New(cfg)
		defer s.Shutdown(context.Background())
		resp, err := s.Submit(context.Background(), Request{Raw: raw, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := submit(Config{Workers: 1, ResultEntries: 4, Dir: dir})
	key, _, err := requestKeys(store.Hash(raw), opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+".res")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const back = 200
	if len(first.Image) <= back {
		t.Fatalf("image of %d bytes is too short to flip a bit %d bytes from the file's end", len(first.Image), back)
	}
	data[len(data)-back] ^= 0x04
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	resp := submit(Config{Workers: 1, ResultEntries: 4, Dir: dir})
	fresh := submit(Config{Workers: 1})
	if resp.ResultHit {
		t.Errorf("served the flipped file as a result hit (%d-byte image)", len(resp.Image))
	}
	if !bytes.Equal(resp.Image, fresh.Image) {
		t.Errorf("image after the flipped file differs from a fresh server's (%d and %d bytes)", len(resp.Image), len(fresh.Image))
	}
}

// TestUndecodableBodyIs422: the binary is decoded only on an analysis
// miss, inside the worker, yet a body that does not decode still gets
// 422 with the bad-binary message, and the failure is not cached.
func TestUndecodableBodyIs422(t *testing.T) {
	s := New(Config{Workers: 1, ResultEntries: 4})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/rewrite?mode=jt", "application/octet-stream", strings.NewReader("not a binary"))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(msg), "service: bad request binary") {
			t.Fatalf("request %d: %d %q, want 422 naming a bad request binary", i, resp.StatusCode, msg)
		}
	}
}

// jtKey is the analysis key the service computes for a jt request on
// raw.
func jtKey(t *testing.T, raw []byte) analysisKey {
	t.Helper()
	_, key, err := requestKeys(store.Hash(raw), core.Options{Mode: core.ModeJT})
	if err != nil {
		t.Fatal(err)
	}
	return key
}
