// Package batch is the fleet-rewriting subsystem: submit a manifest of
// binaries + modes, get a job ID, stream per-binary progress and
// per-stage span events over SSE (or poll), and collect the rewritten
// images. It rides the layers below it rather than duplicating them:
//
//   - scheduling — every item runs through the service's batch lane
//     (sched.Pool.DoBatch), so interactive /rewrite requests always
//     dispatch first and one worker stays reserved for them;
//   - dedupe — items sharing a binary hash dedupe through the analysis
//     store's single-flight exactly like concurrent /rewrite requests:
//     a 10-item job over 3 distinct binaries performs 3 analyses;
//   - persistence — the job record (inputs, options, and each finished
//     item's output) lives in an internal/store with disk persistence,
//     re-Put after every item completion, so a restarted daemon
//     resumes drained jobs from the last completed item and finishes
//     them byte-identically;
//   - observability — job/item counters and queue-depth gauges join
//     the server's /metrics registry.
//
// The cluster plugs in through SetExec: a node replaces the local
// executor with one that routes each item to the peer owning its
// content hash (the same ring /rewrite uses), so fleet jobs keep the
// cluster's cache locality without new routing machinery.
package batch

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"strings"
	"sync"

	"icfgpatch/internal/obs"
	"icfgpatch/internal/service"
	"icfgpatch/internal/service/wire"
	"icfgpatch/internal/store"
)

// Exec runs one item's rewrite and returns its image and record, the
// same service.Response whether the item ran locally or on a peer. The
// default executor submits to the local server's batch lane; the
// cluster installs a routing executor via SetExec.
type Exec func(ctx context.Context, item *Item) (*service.Response, error)

// Item is one unit of batch work: a manifest entry plus its parsed
// options and content hash.
type Item struct {
	Index int
	Name  string
	// Opts is the item's /rewrite query string (already validated).
	Opts string
	// Input is the serialised input binary; Hash its content address —
	// the same hash /rewrite routes and caches by.
	Input []byte
	Hash  string
}

// record is the persisted job state, gob-encoded into the job store.
// It carries everything a restarted daemon needs to finish the job:
// pending items' inputs and finished items' outputs.
type record struct {
	ID    string
	Items []itemRecord
}

type itemRecord struct {
	Name      string
	Opts      string
	Input     []byte
	Hash      string
	State     string // wire.BatchPending/Running are both persisted as pending
	Path      string
	Err       string
	ElapsedUS int64
	Image     []byte
}

// Job is one batch job's live state. All fields behind mu; the event
// log grows monotonically and is the replay source for late or
// reconnecting SSE subscribers.
type Job struct {
	ID      string
	Total   int
	Resumed bool

	mu     sync.Mutex
	rec    *record
	state  string
	done   int
	events []wire.BatchEvent
	subs   map[chan wire.BatchEvent]bool // true once overflowed (closed)
	doneCh chan struct{}
}

// Config configures a Manager.
type Config struct {
	// Dir enables job-state persistence (and therefore resume); jobs
	// are memory-only without it.
	Dir string
}

const (
	// jobEntries bounds the in-memory job store. Evicted finished jobs
	// remain on disk when Config.Dir is set.
	jobEntries = 256
	// jobParallel bounds each job's concurrently in-flight items. The
	// scheduler's batch lane is the real throttle — this only bounds how
	// much of the batch queue one job can occupy.
	jobParallel = 4
)

// Manager owns batch jobs for one server: submission, execution,
// events, persistence, resume.
type Manager struct {
	srv *service.Server
	cfg Config

	execMu sync.RWMutex
	exec   Exec

	mu   sync.Mutex
	jobs map[string]*Job

	records *store.Store[string, *record]

	rootCtx context.Context
	cancel  context.CancelFunc
	runners sync.WaitGroup

	jobsTotal   *obs.CounterVec
	itemsTotal  *obs.CounterVec
	eventsTotal *obs.Counter
	active      int64 // guarded by mu
	subscribers int64 // guarded by mu
}

// jobSuffix names persisted job records: <id>.job in cfg.Dir.
const jobSuffix = ".job"

// New builds a Manager over srv, registers its metrics on srv's
// registry, and — when cfg.Dir holds records of unfinished jobs from a
// previous process — resumes them immediately.
func New(srv *service.Server, cfg Config) (*Manager, error) {
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		srv:     srv,
		cfg:     cfg,
		jobs:    map[string]*Job{},
		rootCtx: ctx,
		cancel:  cancel,
	}
	m.exec = m.execLocal
	m.records = store.New(store.Config[string, *record]{
		MaxEntries: jobEntries,
		Dir:        cfg.Dir,
		KeyPath:    func(id string) string { return id + jobSuffix },
		Encode:     encodeRecord,
		Decode:     decodeRecord,
	})
	reg := srv.Registry()
	m.jobsTotal = reg.CounterVec("icfg_batch_jobs_total", "batch jobs by outcome", "outcome")
	m.itemsTotal = reg.CounterVec("icfg_batch_items_total", "batch items by outcome", "outcome")
	m.eventsTotal = reg.Counter("icfg_batch_events_total", "batch progress events emitted")
	reg.GaugeFunc("icfg_batch_jobs_active", "batch jobs currently running", "", "",
		func() float64 { m.mu.Lock(); defer m.mu.Unlock(); return float64(m.active) })
	reg.GaugeFunc("icfg_batch_subscribers", "live batch event-stream subscribers", "", "",
		func() float64 { m.mu.Lock(); defer m.mu.Unlock(); return float64(m.subscribers) })
	if err := m.resume(); err != nil {
		cancel()
		return nil, err
	}
	return m, nil
}

// SetExec replaces the per-item executor (the cluster's routing seam).
func (m *Manager) SetExec(e Exec) {
	m.execMu.Lock()
	m.exec = e
	m.execMu.Unlock()
}

// LocalExec returns the default executor — submit to the local
// server's batch lane — for routing executors to fall back on.
func (m *Manager) LocalExec() Exec { return m.execLocal }

func (m *Manager) execLocal(ctx context.Context, it *Item) (*service.Response, error) {
	opts, err := wire.ParseItemOptions(it.Opts)
	if err != nil {
		return nil, err
	}
	return m.srv.SubmitBatch(ctx, service.Request{Raw: it.Input, Hash: it.Hash, Opts: opts})
}

// Submit validates a manifest, persists the new job, and starts its
// runner. The returned job is already running.
func (m *Manager) Submit(man wire.BatchManifest) (*Job, error) {
	if err := man.Validate(); err != nil {
		return nil, err
	}
	id, err := newID()
	if err != nil {
		return nil, err
	}
	rec := &record{ID: id, Items: make([]itemRecord, len(man.Items))}
	for i, it := range man.Items {
		rec.Items[i] = itemRecord{
			Name:  it.Name,
			Opts:  it.Opts,
			Input: it.Binary,
			Hash:  store.Hash(it.Binary),
			State: wire.BatchPending,
		}
	}
	job := m.track(rec, false)
	m.persist(job)
	m.start(job)
	return job, nil
}

// track registers a live Job for rec.
func (m *Manager) track(rec *record, resumed bool) *Job {
	job := &Job{
		ID:      rec.ID,
		Total:   len(rec.Items),
		Resumed: resumed,
		rec:     rec,
		state:   wire.BatchRunning,
		subs:    map[chan wire.BatchEvent]bool{},
		doneCh:  make(chan struct{}),
	}
	for i := range rec.Items {
		if rec.Items[i].State == wire.BatchDone || rec.Items[i].State == wire.BatchFailed {
			job.done++
		}
	}
	m.mu.Lock()
	m.jobs[rec.ID] = job
	m.active++
	m.mu.Unlock()
	return job
}

// start launches the job's runner goroutine.
func (m *Manager) start(job *Job) {
	m.runners.Add(1)
	go func() {
		defer m.runners.Done()
		m.run(job)
	}()
}

// resume scans the persistence directory for records of jobs that were
// still running when the previous process died and restarts them. The
// read goes through the record store so corrupt or oversized records
// take the store's delete-and-skip path instead of wedging startup.
func (m *Manager) resume() error {
	if m.cfg.Dir == "" {
		return nil
	}
	paths, err := filepath.Glob(filepath.Join(m.cfg.Dir, "*"+jobSuffix))
	if err != nil {
		return err
	}
	for _, p := range paths {
		id := strings.TrimSuffix(filepath.Base(p), jobSuffix)
		rec, _, err := m.records.GetOrCreate(id, func() (*record, error) {
			return nil, fmt.Errorf("batch: job %s not on disk", id)
		})
		if err != nil || rec == nil {
			continue // corrupt record: the store already deleted it
		}
		unfinished := false
		for i := range rec.Items {
			if rec.Items[i].State != wire.BatchDone && rec.Items[i].State != wire.BatchFailed {
				rec.Items[i].State = wire.BatchPending
				unfinished = true
			}
		}
		if !unfinished {
			continue // finished jobs stay pollable from disk, nothing to run
		}
		m.start(m.track(rec, true))
	}
	return nil
}

// run drives one job: pending items fan out up to jobParallel wide,
// each through the (possibly cluster-routing) executor on the batch
// lane, with the record re-persisted and events emitted as each item
// lands.
func (m *Manager) run(job *Job) {
	m.emit(job, wire.BatchEvent{Type: wire.EventJobStart, Item: -1})
	sem := make(chan struct{}, jobParallel)
	var wg sync.WaitGroup
	for i := range job.rec.Items {
		job.mu.Lock()
		state := job.rec.Items[i].State
		job.mu.Unlock()
		if state == wire.BatchDone || state == wire.BatchFailed {
			continue // resumed job: already completed before the restart
		}
		if m.rootCtx.Err() != nil {
			break // manager shutting down; the job resumes after restart
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			m.runItem(job, i)
		}(i)
	}
	wg.Wait()

	if m.rootCtx.Err() != nil {
		// Shutdown mid-job: leave the record as-is (running state is
		// persisted as pending) so the next process resumes it; emit
		// nothing — subscribers see the disconnect and re-attach.
		m.mu.Lock()
		m.active--
		m.mu.Unlock()
		return
	}
	job.mu.Lock()
	failed := 0
	for i := range job.rec.Items {
		if job.rec.Items[i].State == wire.BatchFailed {
			failed++
		}
	}
	job.state = wire.BatchDone
	outcome := "ok"
	typ := wire.EventJobDone
	if failed > 0 {
		job.state = wire.BatchFailed
		outcome = "failed"
		typ = wire.EventJobFailed
	}
	job.mu.Unlock()
	m.persist(job)
	m.jobsTotal.With(outcome).Inc()
	m.emit(job, wire.BatchEvent{Type: typ, Item: -1})
	m.mu.Lock()
	m.active--
	m.mu.Unlock()
	close(job.doneCh)
}

// runItem executes one item and records its outcome.
func (m *Manager) runItem(job *Job, i int) {
	job.mu.Lock()
	job.rec.Items[i].State = wire.BatchRunning
	it := &Item{
		Index: i,
		Name:  job.rec.Items[i].Name,
		Opts:  job.rec.Items[i].Opts,
		Input: job.rec.Items[i].Input,
		Hash:  job.rec.Items[i].Hash,
	}
	job.mu.Unlock()
	m.emit(job, wire.BatchEvent{Type: wire.EventItemStart, Item: i, Name: it.Name})

	m.execMu.RLock()
	exec := m.exec
	m.execMu.RUnlock()
	res, err := exec(m.rootCtx, it)

	if m.rootCtx.Err() != nil && err != nil {
		// Shutdown killed the rewrite, not the rewrite itself: the item
		// goes back to pending for the next process.
		job.mu.Lock()
		job.rec.Items[i].State = wire.BatchPending
		job.mu.Unlock()
		return
	}
	var path string
	job.mu.Lock()
	ir := &job.rec.Items[i]
	if err != nil {
		ir.State = wire.BatchFailed
		ir.Err = err.Error()
	} else {
		path = service.ReplyCachePath(&res.Reply)
		ir.State = wire.BatchDone
		ir.Image = res.Image
		ir.Path = path
		ir.ElapsedUS = res.ElapsedUS
	}
	job.done++
	done := job.done
	job.mu.Unlock()

	// Persist before announcing: a crash after the event but before the
	// persist would re-run the item (harmless, idempotent); the reverse
	// order could announce work a restart then silently redoes.
	m.persist(job)
	if err != nil {
		m.itemsTotal.With("failed").Inc()
		m.emit(job, wire.BatchEvent{Type: wire.EventItemFailed, Item: i, Name: it.Name,
			Err: err.Error(), Done: done})
		return
	}
	// Stage events follow /metrics: a result-cache replay ran no stage,
	// so the original build's laps are not reported as this item's.
	if path != service.PathResultCache {
		for _, st := range res.Metrics.Stages {
			m.emit(job, wire.BatchEvent{Type: wire.EventItemStage, Item: i, Name: it.Name,
				Stage: st.Name, WallUS: st.Wall.Microseconds()})
		}
	}
	m.itemsTotal.With("ok").Inc()
	m.emit(job, wire.BatchEvent{Type: wire.EventItemDone, Item: i, Name: it.Name,
		Path: path, WallUS: res.ElapsedUS, Done: done})
}

// persist re-Puts the job's record through the store (and so to disk).
func (m *Manager) persist(job *Job) {
	job.mu.Lock()
	// Snapshot under the lock; gob encoding happens on the copy so item
	// goroutines are not serialised behind disk writes.
	snap := &record{ID: job.rec.ID, Items: append([]itemRecord(nil), job.rec.Items...)}
	job.mu.Unlock()
	for i := range snap.Items {
		if snap.Items[i].State == wire.BatchRunning {
			snap.Items[i].State = wire.BatchPending
		}
	}
	m.records.Put(snap.ID, snap) // persist failures are counted by the store
}

// emit appends one event to the job's log and fans it out. Subscribers
// too slow to keep up are closed with their overflow flag set; they
// re-attach from their last sequence number and replay from the log.
func (m *Manager) emit(job *Job, ev wire.BatchEvent) {
	job.mu.Lock()
	ev.Seq = int64(len(job.events)) + 1
	ev.Total = job.Total
	if ev.Done == 0 && ev.Item == -1 {
		ev.Done = job.done
	}
	job.events = append(job.events, ev)
	for ch, dead := range job.subs {
		if dead {
			continue
		}
		select {
		case ch <- ev:
		default:
			job.subs[ch] = true
			close(ch)
		}
	}
	job.mu.Unlock()
	m.eventsTotal.Inc()
}

// Get returns a live job by ID. Finished jobs evicted from memory but
// persisted on disk are revived read-only (no runner — all items are
// final).
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	job, ok := m.jobs[id]
	m.mu.Unlock()
	if ok {
		return job, true
	}
	if m.cfg.Dir == "" || !validID(id) {
		return nil, false
	}
	rec, _, err := m.records.GetOrCreate(id, func() (*record, error) {
		return nil, fmt.Errorf("batch: no job %s", id)
	})
	if err != nil || rec == nil {
		return nil, false
	}
	job = &Job{
		ID:     rec.ID,
		Total:  len(rec.Items),
		rec:    rec,
		state:  wire.BatchDone,
		subs:   map[chan wire.BatchEvent]bool{},
		doneCh: make(chan struct{}),
	}
	for i := range rec.Items {
		if rec.Items[i].State == wire.BatchFailed {
			job.state = wire.BatchFailed
		}
		job.done++
	}
	close(job.doneCh)
	m.mu.Lock()
	if cur, ok := m.jobs[id]; ok {
		job = cur // lost a race to another reviver
	} else {
		m.jobs[id] = job
	}
	m.mu.Unlock()
	return job, true
}

// Status snapshots one job.
func (j *Job) Status() *wire.BatchStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &wire.BatchStatus{
		ID:      j.ID,
		State:   j.state,
		Done:    j.done,
		Total:   j.Total,
		Resumed: j.Resumed,
		Items:   make([]wire.BatchItemStatus, len(j.rec.Items)),
	}
	for i := range j.rec.Items {
		ir := &j.rec.Items[i]
		st.Items[i] = wire.BatchItemStatus{
			Name:      ir.Name,
			State:     ir.State,
			Path:      ir.Path,
			Err:       ir.Err,
			ElapsedUS: ir.ElapsedUS,
			Bytes:     len(ir.Image),
		}
	}
	return st
}

// Output returns item idx's rewritten image, or an error while the
// item is not done.
func (j *Job) Output(idx int) ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if idx < 0 || idx >= len(j.rec.Items) {
		return nil, fmt.Errorf("batch: job %s has no item %d", j.ID, idx)
	}
	ir := &j.rec.Items[idx]
	switch ir.State {
	case wire.BatchDone:
		return ir.Image, nil
	case wire.BatchFailed:
		return nil, fmt.Errorf("batch: item %d (%s) failed: %s", idx, ir.Name, ir.Err)
	default:
		return nil, fmt.Errorf("batch: item %d (%s) is %s", idx, ir.Name, ir.State)
	}
}

// Subscribe attaches an event listener from sequence `from` (events
// with Seq > from). It returns the replayable backlog, a live channel
// (nil when the job already ended and the backlog is everything), and
// a cancel function. A listener that falls behind the channel buffer
// has its channel closed; re-Subscribe from the last seen sequence
// resumes loss-free from the log.
func (m *Manager) Subscribe(j *Job, from int64) (backlog []wire.BatchEvent, live chan wire.BatchEvent, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if int(from) < len(j.events) {
		backlog = append(backlog, j.events[from:]...)
	}
	if j.state != wire.BatchRunning {
		return backlog, nil, func() {}
	}
	live = make(chan wire.BatchEvent, 512)
	j.subs[live] = false
	m.mu.Lock()
	m.subscribers++
	m.mu.Unlock()
	cancel = func() {
		j.mu.Lock()
		dead, ok := j.subs[live]
		delete(j.subs, live)
		j.mu.Unlock()
		if ok && !dead {
			close(live)
		}
		m.mu.Lock()
		m.subscribers--
		m.mu.Unlock()
	}
	return backlog, live, cancel
}

// Done returns a channel closed when the job finishes (not when it is
// parked for resume by a shutdown).
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// Shutdown stops accepting work and interrupts running jobs; their
// records stay persisted as pending so the next process resumes them.
// It returns when every runner has parked or ctx expires.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.cancel()
	finished := make(chan struct{})
	go func() {
		m.runners.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func encodeRecord(r *record) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeRecord(data []byte) (*record, error) {
	var r record
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// newID mints a job ID: 16 random bytes, hex.
func newID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("batch: id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// validID rejects IDs that could escape the persistence directory
// before they reach a file path.
func validID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, c := range id {
		ok := (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
		if !ok {
			return false
		}
	}
	return true
}
