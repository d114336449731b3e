package batch

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/service"
	"icfgpatch/internal/service/wire"
	"icfgpatch/internal/store"
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

// TestBatchRecordCannotPoisonCaches resumes a job from a record on disk
// whose item carries one binary (x) next to the hash of another (y), as
// the record format once persisted it. Item hashes are derived from the
// binaries, so the resumed rewrite of x is cached under x, and a later
// rewrite of y matches a fresh server's: through the result cache and,
// with the result cache off, through the analysis store.
func TestBatchRecordCannotPoisonCaches(t *testing.T) {
	x, y := genBinary(t, 61), genBinary(t, 62)
	want := directRewrite(t, y)
	for _, results := range []int{8, 0} {
		t.Run(fmt.Sprintf("results=%d", results), func(t *testing.T) {
			dir := t.TempDir()
			id := strings.Repeat("ab", 16)
			data, err := json.Marshal(map[string]any{
				"id":     id,
				"items":  []map[string]any{{"name": "0", "binary": x, "hash": store.Hash(y)}},
				"status": []wire.BatchItemStatus{{Name: "0", State: wire.BatchPending}},
				"images": [][]byte{nil},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, id+jobSuffix), sealed(data), 0o644); err != nil {
				t.Fatal(err)
			}

			srv := service.New(service.Config{Workers: 2, ResultEntries: results})
			mgr := newManager(srv, Config{Dir: dir})
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				mgr.Shutdown(ctx)
				srv.Shutdown(ctx)
			})
			local := mgr.LocalExec()
			mgr.SetExec(func(ctx context.Context, it *Item) (*service.Response, error) {
				if h := store.Hash(it.Input); it.Hash != h {
					t.Errorf("resumed item %d carries hash %s, its binary's is %s", it.Index, it.Hash, h)
				}
				return local(ctx, it)
			})
			if err := mgr.resume(); err != nil {
				t.Fatal(err)
			}
			job, ok := mgr.Get(id)
			if !ok || !job.Resumed {
				t.Fatalf("job %s not resumed from its record (found %v)", id, ok)
			}
			waitDone(t, job)
			if st := job.Status(); st.State != wire.BatchDone {
				t.Fatalf("resumed job state = %s, want %s", st.State, wire.BatchDone)
			}

			resp, err := srv.Submit(context.Background(), service.Request{
				Raw:  y,
				Opts: core.Options{Mode: core.ModeJT},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resp.Image, want) {
				t.Errorf("rewrite of another binary after the resume (path %s) differs from a fresh server's",
					service.ReplyCachePath(&resp.Reply))
			}
		})
	}
}

// sealed is a record as the record store persists it: the bytes, then
// their sha256.
func sealed(data []byte) []byte {
	sum := sha256.Sum256(data)
	return append(append([]byte(nil), data...), sum[:]...)
}

// TestBatchFlippedRecordNotServed: a finished job's record with one
// bit flipped inside a done item's image still decodes — the flip
// changes the case of one base64 letter — but it no longer matches its
// digest trailer, so a restarted manager drops it instead of serving
// the damaged image.
func TestBatchFlippedRecordNotServed(t *testing.T) {
	dir := t.TempDir()
	raw := genBinary(t, 81)
	want := directRewrite(t, raw)
	srv1 := service.New(service.Config{Workers: 2})
	mgr1, err := New(srv1, Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	job, err := mgr1.Submit(wire.BatchManifest{Items: []wire.BatchItem{{Binary: raw}}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := mgr1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	srv1.Shutdown(ctx)

	path := filepath.Join(dir, job.ID+jobSuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const field = `"images":["`
	at := bytes.Index(data, []byte(field))
	if at < 0 {
		t.Fatalf("record holds no image: %.200q", data)
	}
	at += len(field) + base64.StdEncoding.EncodedLen(len(want))/2
	for c := data[at] | 0x20; c < 'a' || c > 'z'; c = data[at] | 0x20 {
		at++
	}
	data[at] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, mgr2 := newTestManager(t, service.Config{}, Config{Dir: dir})
	if job2, ok := mgr2.Get(job.ID); ok {
		if image, err := job2.Output(0); err == nil && !bytes.Equal(image, want) {
			t.Errorf("restarted manager served the flipped record's image")
		}
	}
}

// TestBatchJobsBounded runs jobEntries+20 one-item jobs to completion.
// A finished job lives only in the record store, so memory holds at
// most jobEntries of them and the running map drains. With Dir the
// oldest job, evicted from memory, still answers its status and output
// from disk; without Dir it is a 404.
func TestBatchJobsBounded(t *testing.T) {
	raw := genBinary(t, 71)
	want := directRewrite(t, raw)
	for _, persist := range []bool{true, false} {
		t.Run(fmt.Sprintf("dir=%v", persist), func(t *testing.T) {
			var cfg Config
			if persist {
				cfg.Dir = t.TempDir()
			}
			srv, mgr := newTestManager(t, service.Config{ResultEntries: 8}, cfg)
			ts := httptest.NewServer(mgr.Handler(srv.Handler()))
			defer ts.Close()

			var oldest string
			for i := 0; i < jobEntries+20; i++ {
				job, err := mgr.Submit(wire.BatchManifest{Items: []wire.BatchItem{{Binary: raw}}})
				if err != nil {
					t.Fatal(err)
				}
				waitDone(t, job)
				if i == 0 {
					oldest = job.ID
				}
			}
			mgr.mu.Lock()
			running := len(mgr.running)
			mgr.mu.Unlock()
			if running != 0 {
				t.Errorf("%d jobs still in the running map after every job finished", running)
			}
			if n := mgr.records.Len(); n > jobEntries {
				t.Errorf("memory holds %d finished jobs, bound is %d", n, jobEntries)
			}

			get := func(path string) (int, []byte) {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, body
			}
			code, body := get("/batch/" + oldest)
			if !persist {
				if code != http.StatusNotFound {
					t.Errorf("evicted job without a Dir: GET status %d, want 404", code)
				}
				return
			}
			if code != http.StatusOK {
				t.Fatalf("evicted job with a Dir: GET status %d: %s", code, body)
			}
			var st wire.BatchStatus
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
			if st.State != wire.BatchDone || st.Done != 1 || st.Items[0].Bytes != len(want) {
				t.Errorf("oldest job's status from disk = %+v", st)
			}
			if code, body = get("/batch/" + oldest + "/output/0"); code != http.StatusOK || !bytes.Equal(body, want) {
				t.Errorf("oldest job's output from disk: status %d, %d bytes, want 200 and the single /rewrite bytes", code, len(body))
			}
			if mgr.records.Stats().DiskHits == 0 {
				t.Error("the oldest job was not read back from disk")
			}
		})
	}
}

// TestBatchStreamEndsWithJobEvent subscribes in a tight loop while
// jobs finish: the subscription that finds a job ended must find the
// job's last event in its backlog, or the event stream would close
// without one. With a Dir the window between the two is a record write.
func TestBatchStreamEndsWithJobEvent(t *testing.T) {
	raw := genBinary(t, 81)
	_, mgr := newTestManager(t, service.Config{ResultEntries: 8}, Config{Dir: t.TempDir()})
	for n := 0; n < 20; n++ {
		job, err := mgr.Submit(wire.BatchManifest{Items: []wire.BatchItem{{Binary: raw}, {Binary: raw}}})
		if err != nil {
			t.Fatal(err)
		}
		for {
			backlog, live, cancel := mgr.Subscribe(job, 0)
			cancel()
			if live != nil {
				continue
			}
			if last := backlog[len(backlog)-1]; last.Type != wire.EventJobDone {
				t.Fatalf("job %d ended with a %s event, want %s", n, last.Type, wire.EventJobDone)
			}
			break
		}
		waitDone(t, job)
	}
}

// parentRecord is the job record the gob codec wrote before records
// became JSON; it seeds FuzzDecodeJobRecord.
type parentRecord struct {
	ID    string
	Items []parentItem
}

type parentItem struct {
	Name, Opts  string
	Input       []byte
	Hash, State string
	Path, Err   string
	ElapsedUS   int64
	Image       []byte
}

// FuzzDecodeJobRecord: job records are read back from disk, so no
// input may panic decodeJob, and a record it accepts must re-encode to
// one that decodes to an equal job.
func FuzzDecodeJobRecord(f *testing.F) {
	id := strings.Repeat("0f", 16)
	job := newJob(id,
		[]wire.BatchItem{{Name: "a", Opts: "mode=dir", Binary: []byte("in-a")}, {Name: "b", Binary: []byte("in-b")}, {Name: "c", Binary: []byte("in-c")}},
		[]wire.BatchItemStatus{
			{Name: "a", State: wire.BatchDone, Path: service.PathCold, ElapsedUS: 7, Bytes: 5},
			{Name: "b", State: wire.BatchFailed, Err: "boom"},
			{Name: "c", State: wire.BatchRunning},
		},
		[][]byte{[]byte("out-a"), nil, nil})
	valid, err := encodeJob(job)
	if err != nil {
		f.Fatal(err)
	}
	var parent bytes.Buffer
	prec := parentRecord{ID: id, Items: []parentItem{{Name: "a", Input: []byte("in-a"), Hash: store.Hash([]byte("in-b")), State: wire.BatchPending}}}
	if err := gob.NewEncoder(&parent).Encode(prec); err != nil {
		f.Fatal(err)
	}
	many := `{"id":"` + id + `","items":[` + strings.Repeat(`{},`, wire.MaxBatchItems) + `{}],"status":[],"images":[]}`
	// The first seed is the one valid record; every other one must be
	// refused.
	for i, seed := range []string{
		string(valid),
		string(valid[:len(valid)/2]),
		`{"id":"` + id + `","items":[{"name":"a","binary":"AA=="},{"name":"b","binary":"AA=="}],"status":[{"name":"a","state":"pending"}],"images":[null,null]}`,
		`{"id":"` + id + `","items":[{"name":"a","binary":"AA=="}],"status":[{"name":"a","state":"exploded"}],"images":[null]}`,
		`{"id":"` + id + `","items":[{"name":"a","binary":"AA=="}],"status":[{"name":"a","state":"running"}],"images":[null]}`,
		`{"id":"` + id + `","items":[{"name":"a","binary":"AA=="}],"status":[{"name":"a","state":"done","bytes":3}],"images":["AAA="]}`,
		`{"id":"` + id + `","items":[{"name":"a","opts":"verfy=1","binary":"AA=="}],"status":[{"name":"a","state":"pending"}],"images":[null]}`,
		many,
		string(valid) + `{}`,
		parent.String(),
	} {
		if _, err := decodeJob([]byte(seed)); (err == nil) != (i == 0) {
			f.Fatalf("seed %d: decode error = %v", i, err)
		}
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		job, err := decodeJob(data)
		if err != nil {
			return
		}
		enc, err := encodeJob(job)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		back, err := decodeJob(enc)
		if err != nil {
			t.Fatalf("re-encoded record %s does not decode: %v", enc, err)
		}
		if back.ID != job.ID || back.state != job.state || back.done != job.done ||
			!reflect.DeepEqual(back.items, job.items) || !reflect.DeepEqual(back.status, job.status) ||
			!reflect.DeepEqual(back.images, job.images) {
			t.Fatalf("round trip changed the job: %s -> %s", data, enc)
		}
	})
}
