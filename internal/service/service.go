// Package service turns the rewriter into a daemon. It owns the
// service's caches, settings and counters; two layers it composes live
// in their own packages —
//
//   - internal/service/sched — the bounded worker pool and
//     backpressured queue (knows nothing about rewriting);
//   - internal/service/wire — the /rewrite option encoding and reply
//     frame shared by servers, clients, gateways, and peers. Its Reply
//     is the one record of a rewrite: the service's response, the
//     result cache's entry (persisted as the frame) and a batch item's
//     outcome.
//
// The paper's incremental pitch is operational here: rewriting the same
// binary with different instrumentation sets (the Diogenes §9 loop)
// pays for CFG, jump-table, and function-pointer analysis once per
// (binary hash, arch, mode, variant) and then runs only core.Patch per
// request. Three caches back that, all held by Server: the analysis
// store (keyed by analysisKey), the function-unit store the delta
// engine shares across analyses, and an optional result cache — keyed
// by the full request, persistable to disk — that serves byte-identical
// repeat requests without patching at all. requestKeys builds both
// request keys.
//
// The cluster (internal/cluster) plugs into the transport layer through
// ServeRewrite and Registry, without touching caches or scheduling: a
// node that misses its analysis store analyses locally.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"icfgpatch/internal/bin"
	"icfgpatch/internal/core"
	"icfgpatch/internal/obs"
	"icfgpatch/internal/service/sched"
	"icfgpatch/internal/service/wire"
	"icfgpatch/internal/store"
)

// Sentinel errors for the service's rejection paths — the scheduling
// layer's sentinels re-exported so callers keep matching against the
// service package.
var (
	// ErrQueueFull is returned by Submit when the request queue is at
	// capacity — the backpressure signal; clients should retry later.
	ErrQueueFull = sched.ErrQueueFull
	// ErrShuttingDown is returned for requests submitted after Shutdown
	// began, and (wrapped) for queued requests drained during Shutdown.
	ErrShuttingDown = sched.ErrShuttingDown
)

// Config configures a Server. Zero values select the documented
// defaults.
type Config struct {
	// Workers is the rewrite worker count (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the pending request queue (default: 64).
	QueueDepth int
	// BatchQueueDepth bounds the batch lane's queue (default: 256).
	// Batch items only run when no interactive request is queued, and
	// at most Workers-1 workers serve them, so fleet jobs cannot starve
	// interactive traffic.
	BatchQueueDepth int
	// MaxRequestBytes caps HTTP request bodies at the /rewrite and
	// /batch doors (0: wire.DefaultMaxBody; negative: unbounded). An
	// over-cap POST gets 413 instead of being read into memory whole.
	MaxRequestBytes int64
	// AnalysisEntries bounds the analysis store (default: 32 entries).
	AnalysisEntries int
	// FuncEntries bounds the function-unit store — the delta engine's
	// second, function-keyed cache level shared by every analysis the
	// server runs (default: 4096 function identities; -1 disables it).
	FuncEntries int
	// ResultEntries bounds the request-level result cache; 0 disables
	// it (analyses are still cached).
	ResultEntries int
	// Dir enables on-disk persistence of the result cache.
	Dir string
	// Timeout bounds each request's processing time, measured from
	// dequeue; 0 means no server-side limit.
	Timeout time.Duration
}

// Request is one rewrite submission. Either Binary or Raw (a serialised
// binary) must be set. Hash is the content address, store.Hash of Raw
// (or of Binary's serialisation); it is computed when empty, and a
// caller that sets it vouches for it, since it keys both caches.
type Request struct {
	Raw    []byte
	Binary *bin.Binary
	Hash   string
	Opts   core.Options
	// Trace requests a span tree for this rewrite; the Response carries
	// it back. Tracing is per-request so one noisy client cannot slow
	// the pipeline for everyone.
	Trace bool

	// The cache keys, filled by normalize.
	resultKey   string
	analysisKey analysisKey
}

// analysisKey addresses one cached analysis: the content hash of the
// serialised binary (which covers the arch) plus the analysis rows of
// the request's wire encoding (wire.AnalysisQuery).
type analysisKey struct {
	Hash string
	Opts string
}

// requestKeys builds one request's two cache keys from a single
// encoding of its options. The result key is a hash of a versioned
// string of the content address, the request's wire encoding and the
// profile's content hash (a nil profile hashes to "", so degraded guided
// requests share the unguided entry). The analysis key keeps only the
// analysis rows, so requests that differ only in their instrumentation
// share one analysis. Options the wire cannot express are refused, so
// neither key ever renders them.
func requestKeys(hash string, o core.Options) (string, analysisKey, error) {
	prof := o.Profile
	o.Profile = nil
	v, err := wire.EncodeOptions(o)
	if err != nil {
		return "", analysisKey{}, err
	}
	result := store.Hash([]byte("opts1\n" + hash + "\n" + v.Encode() + "\n" + prof.Hash()))
	return result, analysisKey{Hash: hash, Opts: wire.AnalysisQuery(v)}, nil
}

// Response is one completed rewrite: the image and its record.
type Response struct {
	// Image is the serialised rewritten binary.
	Image []byte
	// Reply is the rewrite's record, built once when the rewrite
	// finished. On an analysis-store hit the analysis stages report the
	// cached analysis's timings (see core.Analysis.Metrics). On a
	// result-cache hit the record is the cached request's with ResultHit
	// set (AnalysisHit is false then — no analysis was consulted).
	// ElapsedUS is always this request's processing time, excluding
	// queueing.
	Reply
	// Trace is the request's span tree (Request.Trace only). A
	// result-cache replay has no analyze/patch children — the root span
	// with path=result-cache is the whole story.
	Trace *obs.Span
}

// ServerStats is a snapshot of the service's counters.
type ServerStats struct {
	Analyses store.Stats
	Results  store.Stats
	// Funcs is the function-unit store's counters: hits are per-function
	// reuses across binary versions, misses are recomputed functions.
	Funcs store.Stats
	// FuncsHeld is the number of distinct function identities currently
	// in the unit store.
	FuncsHeld int
	// Served, Failed and Rejected are read from Outcomes: ok;
	// error+timeout+canceled; queue_full+shutdown.
	Served   uint64
	Failed   uint64
	Rejected uint64
	Queued   int
	QueueCap int
	// BatchQueued / BatchQueueCap describe the scheduler's batch lane.
	BatchQueued   int
	BatchQueueCap int
	Workers       int
	// Outcomes breaks every finished submission down by its
	// icfg_requests_total label (ok, error, timeout, canceled,
	// queue_full, shutdown).
	Outcomes map[string]uint64
}

// String renders the snapshot as a short multi-line report.
func (s ServerStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workers=%d queued=%d/%d served=%d failed=%d rejected=%d\n",
		s.Workers, s.Queued, s.QueueCap, s.Served, s.Failed, s.Rejected)
	fmt.Fprintf(&b, "analysis store: %s\n", s.Analyses)
	fmt.Fprintf(&b, "result store:   %s\n", s.Results)
	fmt.Fprintf(&b, "func-unit store: %s held=%d", s.Funcs, s.FuncsHeld)
	return b.String()
}

// Server is the rewrite daemon. Create with New, submit with Submit
// (or the HTTP handler), stop with Shutdown.
type Server struct {
	cfg Config
	// analyses single-flights whole-binary analyses by analysisKey.
	analyses *store.Store[analysisKey, *core.Analysis]
	// units is the delta engine's function-keyed cache, shared by every
	// analysis the server runs; nil when disabled.
	units *core.UnitStore
	// results serves byte-identical repeat requests by result key; nil
	// when disabled. Its entries are records without a trace.
	results *store.Store[string, *Response]
	pool    *sched.Pool
	metrics *metrics
}

// New creates a Server and starts its workers.
func New(cfg Config) *Server {
	if cfg.AnalysisEntries <= 0 {
		cfg.AnalysisEntries = 32
	}
	if cfg.FuncEntries == 0 {
		cfg.FuncEntries = 4096
	}
	s := &Server{
		cfg:      cfg,
		analyses: store.New(store.Config[analysisKey, *core.Analysis]{MaxEntries: cfg.AnalysisEntries}),
	}
	if cfg.FuncEntries > 0 {
		s.units = core.NewUnitStore(cfg.FuncEntries)
	}
	if cfg.ResultEntries > 0 {
		s.results = store.New(store.Config[string, *Response]{
			MaxEntries: cfg.ResultEntries,
			Dir:        cfg.Dir,
			KeyPath:    func(k string) string { return k + ".res" },
			Encode:     encodeResult,
			Decode:     decodeResult,
		})
	}
	// The pool's hooks close over s; none can fire before New returns
	// (workers idle until the first Do), so s.metrics is always set by
	// the time they run.
	s.pool = sched.New(sched.Config{
		Workers:         cfg.Workers,
		QueueDepth:      cfg.QueueDepth,
		BatchQueueDepth: cfg.BatchQueueDepth,
		QueueWait:       func(d time.Duration) { s.metrics.queueWait.Observe(d.Seconds()) },
		Dequeue: func() {
			if testHookDequeue != nil {
				testHookDequeue()
			}
		},
		Dropped: func() { s.metrics.requests.With(outcomeShutdown).Inc() },
	})
	s.metrics = newMetrics(s)
	return s
}

// encodeResult persists a result-cache entry as its /rewrite frame.
func encodeResult(r *Response) ([]byte, error) {
	return wire.EncodeFrame(&r.Reply, r.Image)
}

// decodeResult reads a persisted entry back through the frame's bounded
// reader. A file that does not decode — torn, cut inside its image, or
// written in an older format — takes the store's corrupt-artifact path
// and is recomputed.
func decodeResult(data []byte) (*Response, error) {
	rep, image, err := wire.ReadFrame(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return &Response{Image: image, Reply: *rep}, nil
}

// Registry exposes the server's metrics registry so embedders (the
// cluster node) can register their own series on the same /metrics
// endpoint.
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

// Submit enqueues one request and waits for its response. It returns
// ErrQueueFull immediately when the queue is at capacity (the caller
// owns the retry policy), ErrShuttingDown once Shutdown has begun, and
// ctx's error if the caller gives up first.
func (s *Server) Submit(ctx context.Context, req Request) (*Response, error) {
	return s.submit(ctx, req, s.pool.Do)
}

// SubmitBatch is Submit on the scheduler's batch lane: the request only
// runs when no interactive request is queued, at most Workers-1 workers
// serve batch work, and a full batch queue blocks the caller
// (backpressure for a job runner) instead of returning ErrQueueFull.
func (s *Server) SubmitBatch(ctx context.Context, req Request) (*Response, error) {
	return s.submit(ctx, req, s.pool.DoBatch)
}

func (s *Server) submit(ctx context.Context, req Request, do func(context.Context, func(context.Context) error) error) (*Response, error) {
	if err := normalize(&req); err != nil {
		return nil, err
	}
	var resp *Response
	err := do(ctx, func(ctx context.Context) error {
		r, err := s.process(ctx, &req)
		if err != nil {
			return err
		}
		resp = r
		return nil
	})
	switch {
	case err == nil:
		return resp, nil
	case errors.Is(err, ErrQueueFull):
		s.metrics.requests.With(outcomeQueueFull).Inc()
	case err == ErrShuttingDown:
		// At-the-door rejection. Drained-from-queue tasks are counted by
		// the pool's Dropped hook instead, so each rejection is counted
		// exactly once whether or not its submitter is still waiting.
		s.metrics.requests.With(outcomeShutdown).Inc()
	}
	return nil, err
}

// normalize fills the request's derived fields: the content hash, when
// the caller has not already computed it, and the cache keys. Both keys
// are built from the wire encoding, so options it cannot express are
// refused here: the service serves the wire vocabulary. It does not
// decode Raw: a result hit or an analysis hit never needs the binary,
// so analyzeAndPatch decodes it only on an analysis miss. That is safe
// because an entry enters either cache only after its exact bytes
// decoded and were analysed.
func normalize(req *Request) error {
	if req.Binary == nil && len(req.Raw) == 0 {
		return errors.New("service: request carries no binary")
	}
	if req.Hash == "" {
		if len(req.Raw) > 0 {
			req.Hash = store.Hash(req.Raw)
		} else {
			req.Hash = store.Hash(req.Binary.Marshal())
		}
	}
	var err error
	if req.resultKey, req.analysisKey, err = requestKeys(req.Hash, req.Opts); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	return nil
}

// testHookDequeue, when non-nil, runs as a worker picks up a job —
// test instrumentation for deterministic scheduling assertions.
var testHookDequeue func()

// process runs one dequeued request under the server-side timeout.
func (s *Server) process(ctx context.Context, req *Request) (*Response, error) {
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	sp := traceFor(req)
	start := time.Now()
	resp, err := s.handle(ctx, req)
	if err != nil {
		s.metrics.observeFailed(err)
		return nil, err
	}
	resp.ElapsedUS = time.Since(start).Microseconds()
	finishTrace(sp, resp)
	s.metrics.observeServed(resp)
	return resp, nil
}

// handle serves one request through the cache hierarchy. A single
// retry absorbs the singleflight wart: when the building request's
// context dies mid-build, its waiters receive that foreign context
// error even though their own contexts are live — the failed build is
// not cached, so one retry rebuilds cleanly.
func (s *Server) handle(ctx context.Context, req *Request) (*Response, error) {
	for attempt := 0; ; attempt++ {
		resp, err := s.rewriteOnce(ctx, req)
		if err != nil && attempt == 0 && isContextErr(err) && ctx.Err() == nil {
			continue
		}
		return resp, err
	}
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// rewriteOnce is one pass through result cache → analysis cache →
// patch. The request's context is honoured at the phase seams: before
// starting, between Analyze and Patch, and before serialisation.
func (s *Server) rewriteOnce(ctx context.Context, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.results == nil {
		return s.analyzeAndPatch(ctx, req)
	}
	v, hit, err := s.results.GetOrCreate(req.resultKey, func() (*Response, error) {
		return s.analyzeAndPatch(ctx, req)
	})
	if err != nil {
		return nil, err
	}
	// The cached record is shared; the request gets its own copy.
	resp := *v
	if hit {
		resp.AnalysisHit, resp.ResultHit = false, true
	}
	return &resp, nil
}

// analyzeAndPatch is the warm path's seam: analysis through the
// content-addressed store (single-flighted across concurrent requests
// for the same binary), then a per-request patch. It builds the
// rewrite's record. A miss is the one place a request's Raw bytes are
// decoded.
func (s *Server) analyzeAndPatch(ctx context.Context, req *Request) (*Response, error) {
	an, hit, err := s.analyses.GetOrCreate(req.analysisKey, func() (*core.Analysis, error) {
		b := req.Binary
		if b == nil {
			var err error
			if b, err = bin.Unmarshal(req.Raw); err != nil {
				return nil, fmt.Errorf("service: bad request binary: %w", err)
			}
		}
		// The function-unit store turns an analysis-store miss for a new
		// version of a known binary into a delta: unchanged functions'
		// units are pulled instead of recomputed.
		cfgc := req.Opts.AnalysisConfig()
		cfgc.Units = s.units
		return core.Analyze(b, cfgc)
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := an.Patch(req.Opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	image := res.Binary.Marshal()
	// The serialised image is the response; the rewritten binary object
	// is dead, so its pooled emit buffers go back for the next request —
	// the steady-state loop the emit pool exists for.
	res.Recycle()
	return &Response{Image: image, Reply: Reply{
		Stats: res.Stats, Metrics: res.Metrics, MetricsText: res.Metrics.Render(), AnalysisHit: hit,
	}}, nil
}

// Shutdown drains the service: new submissions are rejected, workers
// finish their in-flight requests and stop, and every request still
// queued fails with ErrShuttingDown. It returns ctx's error if the
// in-flight work outlives the context.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.pool.Shutdown(ctx)
}

// Stats snapshots the service counters. Served, Failed and Rejected are
// sums over the icfg_requests_total outcomes, so /stats and /metrics
// cannot disagree.
func (s *Server) Stats() ServerStats {
	out := s.metrics.requests.Snapshot()
	st := ServerStats{
		Analyses:      s.analyses.Stats(),
		Funcs:         s.units.Stats(),
		FuncsHeld:     s.units.Len(),
		Served:        out[outcomeOK],
		Failed:        out[outcomeError] + out[outcomeTimeout] + out[outcomeCanceled],
		Rejected:      out[outcomeQueueFull] + out[outcomeShutdown],
		Queued:        s.pool.Queued(),
		QueueCap:      s.pool.QueueCap(),
		BatchQueued:   s.pool.BatchQueued(),
		BatchQueueCap: s.pool.BatchQueueCap(),
		Workers:       s.pool.Workers(),
		Outcomes:      out,
	}
	if s.results != nil {
		st.Results = s.results.Stats()
	}
	return st
}
