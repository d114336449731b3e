package batch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/service"
	"icfgpatch/internal/service/wire"
	"icfgpatch/internal/workload"
)

// genBinary produces a deterministic serialised test binary; distinct
// seeds yield distinct content hashes.
func genBinary(t testing.TB, seed int64) []byte {
	t.Helper()
	p, err := workload.Generate(arch.X64, false, workload.Profile{
		Name: fmt.Sprintf("batch-%d", seed), Seed: seed, Lang: "c++",
		Funcs: 12, SwitchFrac: 0.3, SpillFrac: 0.2,
		TinyFrac: 0.1, Exceptions: true, StackCalls: true, Iters: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p.Binary.Marshal()
}

func newTestManager(t testing.TB, scfg service.Config, bcfg Config) (*service.Server, *Manager) {
	t.Helper()
	if scfg.Workers == 0 {
		scfg.Workers = 4
	}
	srv := service.New(scfg)
	mgr, err := New(srv, bcfg)
	if err != nil {
		srv.Shutdown(context.Background())
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
		srv.Shutdown(ctx)
	})
	return srv, mgr
}

// directRewrite computes the reference output for raw on a throwaway
// server — what a single /rewrite of the same request would return.
func directRewrite(t testing.TB, raw []byte) []byte {
	t.Helper()
	srv := service.New(service.Config{Workers: 2})
	defer srv.Shutdown(context.Background())
	resp, err := srv.Submit(context.Background(), service.Request{
		Raw:  raw,
		Opts: core.Options{Mode: core.ModeJT},
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Image
}

func waitDone(t testing.TB, job *Job) {
	t.Helper()
	select {
	case <-job.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("job %s did not finish", job.ID)
	}
}

// TestBatchDedupe is the headline acceptance check: a 10-binary batch
// with 3 distinct contents performs exactly 3 analyses (the rest
// dedupe through the analysis store's single-flight), and every output
// is byte-identical to a single /rewrite of the same binary.
func TestBatchDedupe(t *testing.T) {
	raws := [][]byte{genBinary(t, 11), genBinary(t, 12), genBinary(t, 13)}
	want := make([][]byte, len(raws))
	for i, raw := range raws {
		want[i] = directRewrite(t, raw)
	}

	srv, mgr := newTestManager(t, service.Config{}, Config{})
	man := wire.BatchManifest{}
	for i := 0; i < 10; i++ {
		man.Items = append(man.Items, wire.BatchItem{Binary: raws[i%len(raws)]})
	}
	job, err := mgr.Submit(man)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)

	st := job.Status()
	if st.State != wire.BatchDone {
		t.Fatalf("job state = %s, want %s", st.State, wire.BatchDone)
	}
	if st.Done != 10 {
		t.Fatalf("done = %d, want 10", st.Done)
	}
	if got := srv.Stats().Analyses.Misses; got != 3 {
		t.Errorf("analysis misses = %d, want 3 (10 items over 3 distinct binaries)", got)
	}
	for i := 0; i < 10; i++ {
		image, err := job.Output(i)
		if err != nil {
			t.Fatalf("output %d: %v", i, err)
		}
		if !bytes.Equal(image, want[i%len(raws)]) {
			t.Errorf("item %d output differs from single /rewrite of the same binary", i)
		}
	}
}

// TestBatchResume kills a manager mid-job and verifies a fresh process
// over the same directory finishes it: the pre-restart item's output
// survives, the rest re-run, and every output stays byte-identical to
// a single rewrite.
func TestBatchResume(t *testing.T) {
	dir := t.TempDir()
	raws := [][]byte{genBinary(t, 21), genBinary(t, 22), genBinary(t, 23), genBinary(t, 24)}
	want := make([][]byte, len(raws))
	for i, raw := range raws {
		want[i] = directRewrite(t, raw)
	}

	srv1 := service.New(service.Config{Workers: 4})
	mgr1, err := New(srv1, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Gate the executor: item 0 runs for real, every other item blocks
	// until shutdown cancels it — freezing the job with exactly one
	// completed item in the persisted record.
	local := mgr1.LocalExec()
	mgr1.SetExec(func(ctx context.Context, it *Item) (*service.Response, error) {
		if it.Index == 0 {
			return local(ctx, it)
		}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	man := wire.BatchManifest{}
	for _, raw := range raws {
		man.Items = append(man.Items, wire.BatchItem{Binary: raw})
	}
	job, err := mgr1.Submit(man)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if st := job.Status(); st.Items[0].State == wire.BatchDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("item 0 never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := mgr1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	srv1.Shutdown(ctx)
	select {
	case <-job.Done():
		t.Fatal("parked job reported done; it should wait for the next process")
	default:
	}

	// "Restart": a fresh server and manager over the same directory.
	// New() resumes the job immediately with the default local executor.
	srv2, mgr2 := newTestManager(t, service.Config{}, Config{Dir: dir})
	_ = srv2
	job2, ok := mgr2.Get(job.ID)
	if !ok {
		t.Fatalf("restarted manager does not know job %s", job.ID)
	}
	if !job2.Resumed {
		t.Error("resumed job not marked Resumed")
	}
	waitDone(t, job2)
	st := job2.Status()
	if st.State != wire.BatchDone {
		t.Fatalf("resumed job state = %s, want %s", st.State, wire.BatchDone)
	}
	if !st.Resumed {
		t.Error("status does not report Resumed")
	}
	for i := range raws {
		image, err := job2.Output(i)
		if err != nil {
			t.Fatalf("output %d: %v", i, err)
		}
		if !bytes.Equal(image, want[i]) {
			t.Errorf("item %d output differs from single /rewrite after resume", i)
		}
	}
}

// collectSSE reads one event stream to completion.
func collectSSE(t testing.TB, url string) []wire.BatchEvent {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	var evs []wire.BatchEvent
	if err := wire.ReadSSE(resp.Body, func(ev wire.BatchEvent) bool {
		evs = append(evs, ev)
		return true
	}); err != nil {
		t.Fatalf("read SSE: %v", err)
	}
	return evs
}

// TestBatchSSEEventOrder submits over HTTP and checks the stream's
// contract: contiguous sequence numbers from 1, job-start first,
// job-done last, one item-done per item with start-before-done, and
// loss-free replay from ?from=N.
func TestBatchSSEEventOrder(t *testing.T) {
	srv, mgr := newTestManager(t, service.Config{}, Config{})
	ts := httptest.NewServer(mgr.Handler(srv.Handler()))
	defer ts.Close()

	man := wire.BatchManifest{}
	for i := 0; i < 4; i++ {
		man.Items = append(man.Items, wire.BatchItem{
			Name:   fmt.Sprintf("bin%d", i),
			Binary: genBinary(t, int64(31+i%2)), // two distinct contents
		})
	}
	body, _ := json.Marshal(man)
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /batch: %d: %s", resp.StatusCode, b)
	}
	var acc wire.BatchAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if acc.Items != 4 {
		t.Fatalf("accepted %d items, want 4", acc.Items)
	}

	evs := collectSSE(t, ts.URL+"/batch/"+acc.ID+"/events")
	if len(evs) < 2+2*4 {
		t.Fatalf("only %d events for a 4-item job", len(evs))
	}
	started := map[int]bool{}
	doneCount := 0
	for i, ev := range evs {
		if ev.Seq != int64(i)+1 {
			t.Fatalf("event %d has seq %d: sequence not contiguous from 1", i, ev.Seq)
		}
		if ev.Total != 4 {
			t.Errorf("event %d total = %d, want 4", i, ev.Total)
		}
		switch ev.Type {
		case wire.EventJobStart:
			if i != 0 {
				t.Errorf("job-start at position %d, want 0", i)
			}
		case wire.EventItemStart:
			started[ev.Item] = true
		case wire.EventItemDone:
			doneCount++
			if !started[ev.Item] {
				t.Errorf("item %d done before its start event", ev.Item)
			}
			if ev.Path == "" {
				t.Errorf("item %d done event carries no cache path", ev.Item)
			}
		case wire.EventItemFailed:
			t.Errorf("item %d failed: %s", ev.Item, ev.Err)
		case wire.EventJobDone:
			if i != len(evs)-1 {
				t.Errorf("job-done at position %d, want last (%d)", i, len(evs)-1)
			}
			if ev.Done != 4 {
				t.Errorf("job-done done = %d, want 4", ev.Done)
			}
		case wire.EventJobFailed:
			t.Error("job failed")
		}
	}
	if doneCount != 4 {
		t.Errorf("%d item-done events, want 4", doneCount)
	}

	// Replay from mid-stream: the finished job's log serves ?from=N with
	// exactly the suffix, duplicate-free.
	from := int64(len(evs) - 2)
	tail := collectSSE(t, fmt.Sprintf("%s/batch/%s/events?from=%d", ts.URL, acc.ID, from))
	if len(tail) != 2 {
		t.Fatalf("replay from %d returned %d events, want 2", from, len(tail))
	}
	if tail[0].Seq != from+1 {
		t.Errorf("replay starts at seq %d, want %d", tail[0].Seq, from+1)
	}
}

// TestBatchSSEClientDisconnect cancels an event stream mid-job: the
// job must still finish, and the subscriber gauge must drain to zero.
func TestBatchSSEClientDisconnect(t *testing.T) {
	srv, mgr := newTestManager(t, service.Config{}, Config{})
	// Slow the items down so the disconnect happens mid-job.
	local := mgr.LocalExec()
	var gate atomic.Bool
	mgr.SetExec(func(ctx context.Context, it *Item) (*service.Response, error) {
		for !gate.Load() {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(2 * time.Millisecond):
			}
		}
		return local(ctx, it)
	})
	ts := httptest.NewServer(mgr.Handler(srv.Handler()))
	defer ts.Close()

	man := wire.BatchManifest{Items: []wire.BatchItem{{Binary: genBinary(t, 41)}}}
	job, err := mgr.Submit(man)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/batch/"+job.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the first frame (job-start), then walk away mid-stream.
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("first read: %v", err)
	}
	cancel()
	resp.Body.Close()

	gate.Store(true)
	waitDone(t, job)
	if st := job.Status(); st.State != wire.BatchDone {
		t.Fatalf("job state after disconnect = %s, want %s", st.State, wire.BatchDone)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		mgr.mu.Lock()
		n := mgr.subscribers
		mgr.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscriber gauge stuck at %d after disconnect", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBatchBodyCap verifies the OOM guard on both doors the manager
// fronts: an over-cap /batch manifest and an over-cap /rewrite body
// each draw 413, and one byte under the cap does not.
func TestBatchBodyCap(t *testing.T) {
	const cap = 4096
	srv, mgr := newTestManager(t, service.Config{MaxRequestBytes: cap}, Config{})
	ts := httptest.NewServer(mgr.Handler(srv.Handler()))
	defer ts.Close()

	post := func(path string, n int) int {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(strings.Repeat("x", n)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/batch", cap+1); code != http.StatusRequestEntityTooLarge {
		t.Errorf("over-cap /batch: %d, want 413", code)
	}
	if code := post("/rewrite", cap+1); code != http.StatusRequestEntityTooLarge {
		t.Errorf("over-cap /rewrite: %d, want 413", code)
	}
	// At the cap the guard must not fire; the garbage body fails later,
	// in the parser, as a plain 400.
	if code := post("/batch", cap); code != http.StatusBadRequest {
		t.Errorf("at-cap /batch: %d, want 400 (bad manifest, not 413)", code)
	}
}
