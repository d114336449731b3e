package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in the Prometheus
// text exposition format (version 0.0.4). It is safe for concurrent
// registration and observation; output is deterministic (families in
// registration order, series sorted by label value).
//
// The implementation is deliberately small: the daemon needs counters,
// counters and gauges read at scrape time, and fixed-bucket histograms —
// nothing else — and the container must not grow dependencies.
type Registry struct {
	mu   sync.Mutex
	fams []*family
	byN  map[string]*family
}

// family is one named metric with its series, one per label value.
type family struct {
	name, help, typ string
	label           string // label key; "" for a single unlabeled series

	mu     sync.Mutex
	series map[string]any // label value -> *Counter | *Histogram | func() float64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byN: map[string]*family{}}
}

func (r *Registry) family(name, help, typ, label string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byN[name]; ok {
		if f.typ != typ || f.label != label {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s{%s}, was %s{%s}", name, typ, label, f.typ, f.label))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, label: label, series: map[string]any{}}
	r.fams = append(r.fams, f)
	r.byN[name] = f
	return f
}

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CounterVec is a counter family keyed by one label.
type CounterVec struct {
	f *family
}

// Counter registers (or returns) the unlabeled counter name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help, "").With("")
}

// CounterVec registers (or returns) a counter family with one label key.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{f: r.family(name, help, "counter", label)}
}

// With returns the counter for one label value, creating it on first use.
func (v *CounterVec) With(value string) *Counter {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if c, ok := v.f.series[value]; ok {
		return c.(*Counter)
	}
	c := &Counter{}
	v.f.series[value] = c
	return c
}

// Snapshot returns every label value's current count.
func (v *CounterVec) Snapshot() map[string]uint64 {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	out := make(map[string]uint64, len(v.f.series))
	for val, c := range v.f.series {
		out[val] = c.(*Counter).Value()
	}
	return out
}

// Value returns the count for one label value (0 if never observed).
func (v *CounterVec) Value(value string) uint64 {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if c, ok := v.f.series[value]; ok {
		return c.(*Counter).Value()
	}
	return 0
}

// GaugeFunc registers a gauge series evaluated at scrape time. label
// and value may be empty for an unlabeled gauge; calling again with the
// same name and a new value adds a series to the family.
func (r *Registry) GaugeFunc(name, help, label, value string, fn func() float64) {
	r.funcSeries(name, help, "gauge", label, value, fn)
}

// CounterFunc registers a counter series evaluated at scrape time: a
// cumulative total kept elsewhere (a store's hit count), which fn must
// only ever report as non-decreasing. Labels work as in GaugeFunc.
func (r *Registry) CounterFunc(name, help, label, value string, fn func() float64) {
	r.funcSeries(name, help, "counter", label, value, fn)
}

func (r *Registry) funcSeries(name, help, typ, label, value string, fn func() float64) {
	f := r.family(name, help, typ, label)
	f.mu.Lock()
	f.series[value] = fn
	f.mu.Unlock()
}

// DefBuckets are the default latency buckets, in seconds: the rewrite
// pipeline's stages span ~100µs (warm patch stages on small binaries)
// to whole seconds (cold analysis of the libxul-like workload).
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// Histogram is a fixed-bucket histogram of float64 observations.
type Histogram struct {
	buckets []float64 // upper bounds, sorted; +Inf implied
	counts  []atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	count   atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	bs := append([]float64(nil), buckets...)
	sort.Float64s(bs)
	return &Histogram{buckets: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// HistogramVec is a histogram family keyed by one label.
type HistogramVec struct {
	f       *family
	buckets []float64
}

// Histogram registers (or returns) an unlabeled histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, "", buckets).With("")
}

// HistogramVec registers (or returns) a histogram family with one label
// key. A nil bucket slice selects DefBuckets.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.family(name, help, "histogram", label), buckets: buckets}
}

// With returns the histogram for one label value, creating it on first
// use.
func (v *HistogramVec) With(value string) *Histogram {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if h, ok := v.f.series[value]; ok {
		return h.(*Histogram)
	}
	h := newHistogram(v.buckets)
	v.f.series[value] = h
	return h
}

// WriteText renders every family in the Prometheus text format.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	for _, f := range fams {
		f.writeText(w)
	}
}

func (f *family) writeText(w io.Writer) {
	f.mu.Lock()
	series := make(map[string]any, len(f.series))
	for k, v := range f.series {
		series[k] = v
	}
	f.mu.Unlock()
	if len(series) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
	for _, val := range sortedKeys(series) {
		switch s := series[val].(type) {
		case *Counter:
			fmt.Fprintf(w, "%s%s %d\n", f.name, labelStr(f.label, val), s.Value())
		case func() float64:
			fmt.Fprintf(w, "%s%s %s\n", f.name, labelStr(f.label, val), fmtFloat(s()))
		case *Histogram:
			cum := uint64(0)
			for i, ub := range s.buckets {
				cum += s.counts[i].Load()
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelStrLe(f.label, val, fmtFloat(ub)), cum)
			}
			cum += s.counts[len(s.buckets)].Load()
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelStrLe(f.label, val, "+Inf"), cum)
			fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelStr(f.label, val), fmtFloat(s.Sum()))
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelStr(f.label, val), s.count.Load())
		}
	}
}

func labelStr(key, val string) string {
	if key == "" {
		return ""
	}
	return fmt.Sprintf("{%s=%q}", key, val)
}

func labelStrLe(key, val, le string) string {
	if key == "" {
		return fmt.Sprintf("{le=%q}", le)
	}
	return fmt.Sprintf("{%s=%q,le=%q}", key, val, le)
}

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an HTTP handler serving the registry as a /metrics
// endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		r.WriteText(&b)
		io.WriteString(w, b.String())
	})
}
