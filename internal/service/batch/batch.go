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
//   - persistence — while a job runs it sits in the manager's running
//     map, and its runner Puts it into the record store (an
//     internal/store, LRU-bounded in memory, spilled to Config.Dir)
//     when it starts and again after every finished item, so a
//     restarted daemon resumes it from the last finished item and
//     finishes it byte-identically. A finished job lives only in the
//     record store. The record is JSON over the wire types; item
//     hashes are derived from the binaries, never read back;
//   - observability — job/item counters and queue-depth gauges join
//     the server's /metrics registry.
//
// The cluster plugs in through SetExec: a node replaces the local
// executor with one that routes each item to the peer owning its
// content hash (the same ring /rewrite uses), so fleet jobs keep the
// cluster's cache locality without new routing machinery.
package batch

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
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

// Item is one unit of batch work: a manifest entry plus its content
// hash.
type Item struct {
	Index int
	Name  string
	// Opts is the item's /rewrite query string (already validated).
	Opts string
	// Input is the serialised input binary; Hash its content address —
	// the same hash /rewrite routes and caches by, always computed from
	// Input.
	Input []byte
	Hash  string
}

// Job is one batch job's state. items is fixed at construction; the
// fields after mu are guarded by it. The event log grows monotonically
// and is the replay source for late or reconnecting SSE subscribers.
type Job struct {
	ID      string
	Total   int
	Resumed bool

	items []Item
	// persistMu orders the job's Puts, so the newest snapshot is the
	// last one written to disk.
	persistMu sync.Mutex

	mu     sync.Mutex
	status []wire.BatchItemStatus
	images [][]byte // each done item's output
	state  string
	done   int
	events []wire.BatchEvent
	subs   map[chan wire.BatchEvent]bool // true once overflowed (closed)
	doneCh chan struct{}
}

// newJob is the one constructor, for submitted and decoded jobs alike.
// A job whose items are all final is finished; otherwise it is running.
func newJob(id string, items []wire.BatchItem, status []wire.BatchItemStatus, images [][]byte) *Job {
	j := &Job{
		ID:     id,
		Total:  len(items),
		items:  make([]Item, len(items)),
		status: status,
		images: images,
		state:  wire.BatchRunning,
		subs:   map[chan wire.BatchEvent]bool{},
		doneCh: make(chan struct{}),
	}
	for i, it := range items {
		j.items[i] = Item{Index: i, Name: it.Name, Opts: it.Opts, Input: it.Binary, Hash: store.Hash(it.Binary)}
		if final(status[i].State) {
			j.done++
		}
	}
	if j.done == j.Total {
		j.state = j.outcomeLocked()
		close(j.doneCh)
	}
	return j
}

func final(state string) bool { return state == wire.BatchDone || state == wire.BatchFailed }

// outcomeLocked is a finished job's state: failed if any item failed.
func (j *Job) outcomeLocked() string {
	for i := range j.status {
		if j.status[i].State == wire.BatchFailed {
			return wire.BatchFailed
		}
	}
	return wire.BatchDone
}

// Config configures a Manager.
type Config struct {
	// Dir enables job-state persistence (and therefore resume); jobs
	// are memory-only without it.
	Dir string
}

const (
	// jobEntries bounds the jobs the record store holds in memory.
	// Evicted finished jobs remain on disk when Config.Dir is set;
	// without it they are gone (404).
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

	mu          sync.Mutex
	running     map[string]*Job // jobs with a live runner
	subscribers int64

	records *store.Store[string, *Job]

	rootCtx context.Context
	cancel  context.CancelFunc
	runners sync.WaitGroup

	jobsTotal   *obs.CounterVec
	itemsTotal  *obs.CounterVec
	eventsTotal *obs.Counter
}

// jobSuffix names persisted job records: <id>.job in cfg.Dir.
const jobSuffix = ".job"

// New builds a Manager over srv, registers its metrics on srv's
// registry, and — when cfg.Dir holds records of unfinished jobs from a
// previous process — resumes them immediately.
func New(srv *service.Server, cfg Config) (*Manager, error) {
	m := newManager(srv, cfg)
	if err := m.resume(); err != nil {
		m.cancel()
		return nil, err
	}
	return m, nil
}

func newManager(srv *service.Server, cfg Config) *Manager {
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		srv:     srv,
		cfg:     cfg,
		running: map[string]*Job{},
		rootCtx: ctx,
		cancel:  cancel,
	}
	m.exec = m.execLocal
	m.records = store.New(store.Config[string, *Job]{
		MaxEntries: jobEntries,
		Dir:        cfg.Dir,
		KeyPath:    func(id string) string { return id + jobSuffix },
		Encode:     encodeJob,
		Decode:     decodeJob,
	})
	reg := srv.Registry()
	m.jobsTotal = reg.CounterVec("icfg_batch_jobs_total", "batch jobs by outcome", "outcome")
	m.itemsTotal = reg.CounterVec("icfg_batch_items_total", "batch items by outcome", "outcome")
	m.eventsTotal = reg.Counter("icfg_batch_events_total", "batch progress events emitted")
	reg.GaugeFunc("icfg_batch_jobs_active", "batch jobs currently running", "", "",
		func() float64 { m.mu.Lock(); defer m.mu.Unlock(); return float64(len(m.running)) })
	reg.GaugeFunc("icfg_batch_subscribers", "live batch event-stream subscribers", "", "",
		func() float64 { m.mu.Lock(); defer m.mu.Unlock(); return float64(m.subscribers) })
	return m
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
	status := make([]wire.BatchItemStatus, len(man.Items))
	for i, it := range man.Items {
		status[i] = wire.BatchItemStatus{Name: it.Name, State: wire.BatchPending}
	}
	job := newJob(id, man.Items, status, make([][]byte, len(man.Items)))
	m.start(job)
	return job, nil
}

// start registers job as running, persists it, and launches its runner.
func (m *Manager) start(job *Job) {
	m.mu.Lock()
	m.running[job.ID] = job
	m.mu.Unlock()
	m.persist(job)
	m.runners.Add(1)
	go func() {
		defer m.runners.Done()
		m.run(job)
	}()
}

// resume scans the persistence directory for records of jobs that were
// still running when the previous process died and restarts them. The
// read goes through the record store, so corrupt or oversized records
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
		job, ok := m.load(strings.TrimSuffix(filepath.Base(p), jobSuffix))
		if !ok {
			continue // corrupt record: the store already deleted it
		}
		select {
		case <-job.Done():
			continue // finished jobs stay pollable from the store, nothing to run
		default:
		}
		job.Resumed = true
		m.start(job)
	}
	return nil
}

// run drives one job: pending items fan out up to jobParallel wide,
// each through the (possibly cluster-routing) executor on the batch
// lane, with the job re-persisted and events emitted as each item
// lands.
func (m *Manager) run(job *Job) {
	m.emit(job, wire.BatchEvent{Type: wire.EventJobStart, Item: -1})
	sem := make(chan struct{}, jobParallel)
	var wg sync.WaitGroup
	for i := range job.items {
		job.mu.Lock()
		state := job.status[i].State
		job.mu.Unlock()
		if final(state) {
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

	// Shutdown mid-job parks it: the persisted record holds its
	// unfinished items as pending so the next process resumes it, and
	// nothing is emitted — subscribers see the disconnect and re-attach.
	parked := m.rootCtx.Err() != nil
	if !parked {
		// The last item's persist wrote every outcome, so the record
		// already reads as finished. The final state and event share
		// one lock hold: a subscriber sees both or neither, and a stream
		// that ends always ends with the job's last event.
		job.mu.Lock()
		job.state = job.outcomeLocked()
		outcome, typ := "ok", wire.EventJobDone
		if job.state == wire.BatchFailed {
			outcome, typ = "failed", wire.EventJobFailed
		}
		job.emitLocked(wire.BatchEvent{Type: typ, Item: -1})
		job.mu.Unlock()
		m.eventsTotal.Inc()
		m.jobsTotal.With(outcome).Inc()
	}
	m.mu.Lock()
	delete(m.running, job.ID)
	m.mu.Unlock()
	if !parked {
		close(job.doneCh)
	}
}

// runItem executes one item and records its outcome.
func (m *Manager) runItem(job *Job, i int) {
	it := job.items[i]
	job.mu.Lock()
	job.status[i].State = wire.BatchRunning
	job.mu.Unlock()
	m.emit(job, wire.BatchEvent{Type: wire.EventItemStart, Item: i, Name: it.Name})

	m.execMu.RLock()
	exec := m.exec
	m.execMu.RUnlock()
	res, err := exec(m.rootCtx, &it)

	if m.rootCtx.Err() != nil && err != nil {
		// Shutdown killed the rewrite, not the rewrite itself: the item
		// goes back to pending for the next process.
		job.mu.Lock()
		job.status[i].State = wire.BatchPending
		job.mu.Unlock()
		return
	}
	var path string
	job.mu.Lock()
	st := &job.status[i]
	if err != nil {
		st.State = wire.BatchFailed
		st.Err = err.Error()
	} else {
		path = service.ReplyCachePath(&res.Reply)
		st.State = wire.BatchDone
		st.Path = path
		st.ElapsedUS = res.ElapsedUS
		st.Bytes = len(res.Image)
		job.images[i] = res.Image
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

// persist re-Puts the job into the record store (and so to disk).
func (m *Manager) persist(job *Job) {
	job.persistMu.Lock()
	m.records.Put(job.ID, job) // persist failures are counted by the store
	job.persistMu.Unlock()
}

// emit appends one event to the job's log and fans it out. Subscribers
// too slow to keep up are closed with their overflow flag set; they
// re-attach from their last sequence number and replay from the log.
func (m *Manager) emit(job *Job, ev wire.BatchEvent) {
	job.mu.Lock()
	job.emitLocked(ev)
	job.mu.Unlock()
	m.eventsTotal.Inc()
}

// emitLocked is emit's body, for callers holding j.mu.
func (j *Job) emitLocked(ev wire.BatchEvent) {
	ev.Seq = int64(len(j.events)) + 1
	ev.Total = j.Total
	if ev.Done == 0 && ev.Item == -1 {
		ev.Done = j.done
	}
	j.events = append(j.events, ev)
	for ch, dead := range j.subs {
		if dead {
			continue
		}
		select {
		case ch <- ev:
		default:
			j.subs[ch] = true
			close(ch)
		}
	}
}

// Get returns a job by ID: a running one from the running map, any
// other from the record store (memory, then disk).
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	job, ok := m.running[id]
	m.mu.Unlock()
	if ok {
		return job, true
	}
	if !validID(id) {
		return nil, false
	}
	return m.load(id)
}

// load reads a job through the record store.
func (m *Manager) load(id string) (*Job, bool) {
	job, _, err := m.records.GetOrCreate(id, func() (*Job, error) {
		return nil, fmt.Errorf("batch: no job %s", id)
	})
	return job, err == nil && job.ID == id
}

// Status snapshots one job.
func (j *Job) Status() *wire.BatchStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return &wire.BatchStatus{
		ID:      j.ID,
		State:   j.state,
		Done:    j.done,
		Total:   j.Total,
		Resumed: j.Resumed,
		Items:   append([]wire.BatchItemStatus(nil), j.status...),
	}
}

// Output returns item idx's rewritten image, or an error while the
// item is not done.
func (j *Job) Output(idx int) ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if idx < 0 || idx >= len(j.status) {
		return nil, fmt.Errorf("batch: job %s has no item %d", j.ID, idx)
	}
	st := &j.status[idx]
	switch st.State {
	case wire.BatchDone:
		return j.images[idx], nil
	case wire.BatchFailed:
		return nil, fmt.Errorf("batch: item %d (%s) failed: %s", idx, st.Name, st.Err)
	default:
		return nil, fmt.Errorf("batch: item %d (%s) is %s", idx, st.Name, st.State)
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

// jobRecord is a job's persisted form: JSON over the wire types. Items
// are the validated manifest; Status holds each item's outcome, with
// running persisted as pending; Images holds each done item's output.
// Item hashes are not persisted: decode derives them from the binaries,
// so a record cannot name one binary while carrying another.
type jobRecord struct {
	ID string `json:"id"`
	wire.BatchManifest
	Status []wire.BatchItemStatus `json:"status"`
	Images [][]byte               `json:"images"`
}

func encodeJob(j *Job) ([]byte, error) {
	rec := jobRecord{ID: j.ID, BatchManifest: wire.BatchManifest{Items: make([]wire.BatchItem, len(j.items))}}
	for i, it := range j.items {
		rec.Items[i] = wire.BatchItem{Name: it.Name, Opts: it.Opts, Binary: it.Input}
	}
	// Copy under the lock; marshal outside it, so item goroutines are
	// not serialised behind the encoding.
	j.mu.Lock()
	rec.Status = append([]wire.BatchItemStatus(nil), j.status...)
	rec.Images = append([][]byte(nil), j.images...)
	j.mu.Unlock()
	for i := range rec.Status {
		if rec.Status[i].State == wire.BatchRunning {
			rec.Status[i].State = wire.BatchPending
		}
	}
	return json.Marshal(&rec)
}

// decodeJob reads a record written by encodeJob. encoding/json
// allocates in proportion to the bytes present, and the store caps the
// file read, so the decode is bounded; everything the record claims is
// then checked against itself before a Job is built from it.
func decodeJob(data []byte) (*Job, error) {
	var rec jobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("batch: job record: %w", err)
	}
	if !validID(rec.ID) {
		return nil, fmt.Errorf("batch: job record has bad id %q", rec.ID)
	}
	if err := rec.Validate(); err != nil {
		return nil, fmt.Errorf("batch: job record %s: %w", rec.ID, err)
	}
	if len(rec.Status) != len(rec.Items) || len(rec.Images) != len(rec.Items) {
		return nil, fmt.Errorf("batch: job record %s has %d items, %d statuses and %d images",
			rec.ID, len(rec.Items), len(rec.Status), len(rec.Images))
	}
	for i, st := range rec.Status {
		if st.State != wire.BatchPending && !final(st.State) {
			return nil, fmt.Errorf("batch: job record %s item %d has state %q", rec.ID, i, st.State)
		}
		img := rec.Images[i]
		if st.Name != rec.Items[i].Name || st.Bytes != len(img) || (img != nil && st.State != wire.BatchDone) {
			return nil, fmt.Errorf("batch: job record %s item %d disagrees with its status", rec.ID, i)
		}
	}
	return newJob(rec.ID, rec.Items, rec.Status, rec.Images), nil
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
