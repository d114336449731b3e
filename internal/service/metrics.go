// Service metrics: every counter the daemon already keeps, plus the
// per-stage latency distributions, rendered by internal/obs as a
// Prometheus /metrics endpoint. The registry is per-Server so tests can
// assert on isolated counters; store totals and gauges read live server
// state at scrape time.
package service

import (
	"context"
	"errors"

	"icfgpatch/internal/core"
	"icfgpatch/internal/obs"
	"icfgpatch/internal/store"
)

// Request outcome labels for icfg_requests_total. Every submission ends
// in exactly one of them.
const (
	outcomeOK        = "ok"       // rewrite served
	outcomeError     = "error"    // rewrite failed
	outcomeTimeout   = "timeout"  // server-side deadline fired
	outcomeCanceled  = "canceled" // client gave up (disconnect, cancel)
	outcomeQueueFull = "queue_full"
	outcomeShutdown  = "shutdown"
)

// Cache path labels for icfg_cache_path_total: how much of the pipeline
// a served request actually ran.
const (
	PathCold         = "cold"          // full Analyze + Patch
	PathDelta        = "delta"         // fresh analysis assembled partly from reused function units
	PathWarmAnalysis = "warm-analysis" // cached analysis, per-request Patch
	PathResultCache  = "result-cache"  // byte-identical replay, no patching
)

// metrics is one Server's instrumentation: outcome/cache-path counters,
// latency histograms, scrape-time gauges over the queue, and scrape-time
// counters over the stores.
type metrics struct {
	reg       *obs.Registry
	requests  *obs.CounterVec   // by outcome
	cachePath *obs.CounterVec   // by cache path, served requests only
	stage     *obs.HistogramVec // by pipeline stage, seconds
	request   *obs.Histogram    // end-to-end processing, seconds
	queueWait *obs.Histogram    // enqueue -> dequeue, seconds
	// funcsReused / funcsRecomputed accumulate the delta engine's work
	// split over every analysis freshly built by this server (cached
	// analyses did no function-level work and contribute nothing).
	funcsReused     *obs.Counter
	funcsRecomputed *obs.Counter
	// patchReencoded accumulates the function units encoded by every
	// patch this server ran (result-cache replays ran no patch and
	// contribute nothing).
	patchReencoded *obs.Counter
}

func newMetrics(s *Server) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg:       reg,
		requests:  reg.CounterVec("icfg_requests_total", "rewrite requests by outcome", "outcome"),
		cachePath: reg.CounterVec("icfg_cache_path_total", "served requests by cache path", "path"),
		stage: reg.HistogramVec("icfg_stage_seconds",
			"per-stage pipeline latency (excludes result-cache replays)", "stage", nil),
		request:   reg.Histogram("icfg_request_seconds", "server-side processing time, excluding queueing", nil),
		queueWait: reg.Histogram("icfg_queue_wait_seconds", "time from enqueue to worker dequeue", nil),
		funcsReused: reg.Counter("icfg_analysis_funcs_reused_total",
			"function analysis units reused from the unit store"),
		funcsRecomputed: reg.Counter("icfg_analysis_funcs_recomputed_total",
			"function analysis units recomputed"),
		patchReencoded: reg.Counter("icfg_patch_funcs_reencoded_total",
			"function units rendered and encoded by the emit stage"),
	}
	reg.GaugeFunc("icfg_queue_depth", "requests waiting in the queue", "", "",
		func() float64 { return float64(s.pool.Queued()) })
	reg.GaugeFunc("icfg_queue_capacity", "request queue capacity", "", "",
		func() float64 { return float64(s.pool.QueueCap()) })
	reg.GaugeFunc("icfg_workers", "rewrite worker count", "", "",
		func() float64 { return float64(s.pool.Workers()) })
	reg.GaugeFunc("icfg_batch_queue_depth", "batch-lane requests waiting in the queue", "", "",
		func() float64 { return float64(s.pool.BatchQueued()) })
	reg.GaugeFunc("icfg_batch_queue_capacity", "batch-lane queue capacity", "", "",
		func() float64 { return float64(s.pool.BatchQueueCap()) })
	registerStoreCounters(reg, "analysis", func() store.Stats { return s.analyses.Stats() })
	if s.results != nil {
		registerStoreCounters(reg, "result", func() store.Stats { return s.results.Stats() })
	}
	if units := s.units; units != nil {
		registerStoreCounters(reg, "funcs", func() store.Stats { return units.Stats() })
		reg.GaugeFunc("icfg_store_entries", "entries held by store", "store", "funcs",
			func() float64 { return float64(units.Len()) })
	}
	return m
}

// registerStoreCounters exposes one store's cumulative totals as
// counters, one labeled series per store (analysis, result, funcs), so
// rate() works on them.
func registerStoreCounters(reg *obs.Registry, name string, stats func() store.Stats) {
	reg.CounterFunc("icfg_store_hits_total", "cache hits by store", "store", name,
		func() float64 { return float64(stats().Hits) })
	reg.CounterFunc("icfg_store_misses_total", "cache misses by store", "store", name,
		func() float64 { return float64(stats().Misses) })
	reg.CounterFunc("icfg_store_evictions_total", "cache evictions by store", "store", name,
		func() float64 { return float64(stats().Evictions) })
	reg.CounterFunc("icfg_store_disk_hits_total", "artifacts warmed from disk by store", "store", name,
		func() float64 { return float64(stats().DiskHits) })
	reg.CounterFunc("icfg_store_persist_failures_total", "failed disk persists by store", "store", name,
		func() float64 { return float64(stats().PersistFailures) })
}

// observeServed records a successfully served response: its cache path,
// end-to-end latency, and the per-stage histogram samples of the stages
// this request ran. A result-cache replay ran none; a warm-analysis
// request ran only the patch stages, since its analysis laps are the
// cached analysis's, already observed by the request that built it.
func (m *metrics) observeServed(resp *Response) {
	m.requests.With(outcomeOK).Inc()
	m.cachePath.With(ReplyCachePath(&resp.Reply)).Inc()
	m.request.Observe(float64(resp.ElapsedUS) / 1e6)
	if resp.ResultHit {
		return
	}
	if !resp.AnalysisHit {
		// The analysis was freshly built for this request, so its delta
		// split is this request's function-level work.
		m.funcsReused.Add(uint64(resp.Metrics.FuncsReused))
		m.funcsRecomputed.Add(uint64(resp.Metrics.FuncsRecomputed))
	}
	// The patch stage ran for this request whether or not the analysis
	// was cached, so its encoded units are always this request's work.
	m.patchReencoded.Add(uint64(resp.Metrics.PatchFuncsReencoded))
	for _, st := range resp.Metrics.Stages {
		if !resp.AnalysisHit || !core.AnalysisStage(st.Name) {
			m.stage.With(st.Name).Observe(st.Wall.Seconds())
		}
	}
}

// ReplyCachePath classifies how a served rewrite was produced — one of
// the icfg_cache_path_total labels (cold, delta, warm-analysis,
// result-cache). It is the only classifier: /metrics, traces, batch
// item events and the CLI all read a record through it, whether the
// record was built here or arrived over the wire.
func ReplyCachePath(rep *Reply) string {
	switch {
	case rep.ResultHit:
		return PathResultCache
	case rep.AnalysisHit:
		return PathWarmAnalysis
	case rep.Metrics.FuncsReused > 0:
		// Freshly built, but assembled partly from reused function
		// units: the delta path.
		return PathDelta
	default:
		return PathCold
	}
}

// observeFailed classifies a processing failure into its outcome label.
// The deadline/cancel distinction matters operationally: timeouts point
// at the server (undersized Timeout, oversized binaries), cancellations
// at clients disconnecting.
func (m *metrics) observeFailed(err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		m.requests.With(outcomeTimeout).Inc()
	case errors.Is(err, context.Canceled):
		m.requests.With(outcomeCanceled).Inc()
	default:
		m.requests.With(outcomeError).Inc()
	}
}

// traceFor starts the request's root span when tracing is requested,
// or returns nil.
func traceFor(req *Request) *obs.Span {
	if !req.Trace {
		return nil
	}
	sp := obs.NewTrace("rewrite")
	sp.SetAttr("mode", req.Opts.Mode.String())
	return sp
}

// finishTrace renders the response's record under the request's root
// span, stamps the cache path, closes the span, and attaches the tree to
// the response. A result-cache replay ran no pipeline, so its root span
// has no children.
func finishTrace(sp *obs.Span, resp *Response) {
	if sp == nil || resp == nil {
		return
	}
	if !resp.ResultHit {
		resp.Metrics.AddSpans(sp, resp.AnalysisHit)
	}
	sp.SetAttr("path", ReplyCachePath(&resp.Reply))
	sp.End()
	resp.Trace = sp
}
