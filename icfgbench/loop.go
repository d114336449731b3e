package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// passLoop runs a workload in whole passes. Pass 0 is the verification
// pass: its operations go through the full oracle and it warms caches
// and heap, so it is not timed. Timed passes follow until their summed
// measured time reaches the window. A traced run traces every other
// timed pass (the odd ones) and runs at least two, so the tracing
// overhead is the median traced pass against the median untraced one.
type passLoop struct {
	cfg   runConfig
	tr    *tracer
	n     int // passes run, pass 0 included
	wall  time.Duration
	walls map[bool][]float64 // timed pass wall times in ms, by traced
	// goStart snapshots the runtime counters when timing starts; goAside
	// sums what oracle and harness work inside timed passes moved them.
	goStart, goAside goRuntime
	// Per-operation latencies (ms) of timed passes by group, and their
	// input .text bytes.
	lat  map[string][]float64
	ops  int
	text float64
	// tracedLat is the summed latency of the traced passes' operations,
	// which their root spans must add up to.
	tracedLat float64
}

func newPassLoop(cfg runConfig) *passLoop {
	return &passLoop{cfg: cfg, tr: newTracer(), walls: map[bool][]float64{}, lat: map[string][]float64{}}
}

// next reports whether another pass should run.
func (l *passLoop) next() bool {
	min := 2
	if l.cfg.trace {
		min = 3
	}
	return l.n < min || l.wall < l.cfg.window
}

// tracer is the tracer for the current pass: nil on untraced passes.
func (l *passLoop) tracer() *tracer {
	if l.cfg.trace && l.n%2 == 1 {
		return l.tr
	}
	return nil
}

// op records one operation's latency and input size. group names the
// operation's input population (one per program for a version chain,
// "" elsewhere); the latency percentiles are taken per group.
func (l *passLoop) op(group string, d time.Duration, text int) {
	if l.n == 0 {
		return
	}
	l.lat[group] = append(l.lat[group], ms(d))
	l.ops++
	l.text += float64(text)
	if l.tracer() != nil {
		l.tracedLat += ms(d)
	}
}

// aside runs f, oracle or harness work between a pass's operations, and
// keeps it out of the system's figures: the heap sampler pauses, and in
// timed passes the runtime counters f moves are left out of the go.*
// metrics.
func (l *passLoop) aside(heap *heapSampler, f func() error) error {
	heap.paused.Store(true)
	defer heap.paused.Store(false)
	if l.n == 0 {
		return f()
	}
	before := readGoRuntime()
	err := f()
	l.goAside.add(readGoRuntime().since(before))
	return err
}

// done ends the current pass, which took d of measured time.
func (l *passLoop) done(d time.Duration) {
	if l.n > 0 {
		traced := l.tracer() != nil
		l.walls[traced] = append(l.walls[traced], ms(d))
		l.wall += d
	}
	l.n++
	if l.n == 1 {
		l.goStart = readGoRuntime()
	}
}

// timed is the number of timed passes.
func (l *passLoop) timed() float64 { return float64(l.n - 1) }

// percentile is the geometric mean over the groups of each group's
// q-quantile latency, so a workload that mixes programs of different
// sizes reports a figure that does not jump between their latency
// ranges as the seed moves the mix.
func (l *passLoop) percentile(q float64) float64 {
	var groups []string
	for g := range l.lat {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	var logs float64
	for _, g := range groups {
		logs += math.Log(quantile(l.lat[g], q))
	}
	return math.Exp(logs / float64(len(groups)))
}

// e2e fills the throughput and latency metrics of the timed passes:
// input KiB per second of measured time and latency percentiles; and
// the go.* metrics per timed pass, without the work run aside.
func (l *passLoop) e2e(rep *report) {
	rep.e2e["rewrite_kb_per_s"] = l.text / 1024 / l.wall.Seconds()
	rep.e2e["rewrite_ms.p50"] = l.percentile(0.5)
	rep.e2e["rewrite_ms.p95"] = l.percentile(0.95)
	g := readGoRuntime().since(l.goStart)
	g.pauseNs -= min(g.pauseNs, l.goAside.pauseNs)
	g.alloc -= min(g.alloc, l.goAside.alloc)
	g.mallocs -= min(g.mallocs, l.goAside.mallocs)
	rep.layer["go.gc_pause_ms.sum"] = float64(g.pauseNs) / 1e6 / l.timed()
	rep.layer["go.alloc_mb.sum"] = float64(g.alloc) / (1 << 20) / l.timed()
	rep.layer["go.mallocs.sum"] = float64(g.mallocs) / l.timed()
}

// traceLayers checks the traced passes' spans (see layerTimes.check),
// hands the aggregate and the traced pass count to fill for the
// workload's layer metrics, fills the trace.* metrics, and writes the
// spans out. It does nothing on an untraced run.
func (l *passLoop) traceLayers(rep *report, name string, fill func(lt layerTimes, passes float64)) error {
	if !l.cfg.trace {
		return nil
	}
	lt := l.tr.aggregate()
	if err := lt.check(l.tracedLat); err != nil {
		return err
	}
	on, off := l.walls[true], l.walls[false]
	tp := float64(len(on))
	fill(lt, tp)
	rep.layer["trace.wall_ms.sum"] = lt.roots / tp
	rep.layer["trace.unattributed_ms.sum"] = lt.self["op"] / tp
	rep.layer["trace.overhead_pct"] = (median(on)/median(off) - 1) * 100
	l.tr.write(spanDir, fmt.Sprintf("%s-seed%d.jsonl", name, l.cfg.seed))
	return nil
}
