// Package obs is the toolkit's observability layer: a lightweight span
// tracer for the rewrite pipeline and a dependency-free metrics registry
// rendered in the Prometheus text exposition format.
//
// Both halves are built for the rewrite daemon's constraints. Spans cost
// nothing when disabled: every method is nil-receiver safe, so callers
// render into a root span unconditionally and pass nil for no tracing.
// The rewrite pipeline itself never holds a span: it keeps one record
// per rewrite (core.Metrics), and the span tree is rendered from that
// record after the fact (core.Metrics.AddSpans), so the two cannot
// disagree. The registry serves the same counters the
// service already keeps (request outcomes, cache paths, store
// hit/miss/eviction) plus per-stage latency histograms, so a running
// icfg-serve can be read from the outside — the observable-failure-mode
// requirement the binary-rewriting comparison literature keeps arriving
// at: a rewriter that degrades gracefully but silently is
// indistinguishable from one that is broken.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Attr is one key=value annotation on a span: a counter, a cache path,
// a size — whatever explains where the span's time went.
type Attr struct {
	Key string
	Val string
}

// Span is one timed region of a request, with children for the regions
// it contains. A root span times itself from NewTrace to End; children
// are recorded with durations measured elsewhere. A nil *Span is a
// valid no-op span: every method returns without doing work, so callers
// never branch on "is tracing enabled".
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	dur      time.Duration
	running  bool
	attrs    []Attr
	children []*Span
}

// NewTrace starts a root span for one request or run.
func NewTrace(name string) *Span {
	return &Span{name: name, start: time.Now(), running: true}
}

// End finishes the span, fixing its duration. Ending twice keeps the
// first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.running {
		s.dur = time.Since(s.start)
		s.running = false
	}
	s.mu.Unlock()
}

// Record attaches an already-measured child span, the graft point for
// laps measured elsewhere (core.Metrics stage timings). It returns nil
// when s is nil.
func (s *Span) Record(name string, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, dur: d}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	s.mu.Unlock()
}

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(key string, v int64) {
	s.SetAttr(key, fmt.Sprintf("%d", v))
}

// Attr returns the value of the span's first attribute named key.
func (s *Span) Attr(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// Dur returns the span's duration; for a still-running span, the time
// since it started.
func (s *Span) Dur() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return time.Since(s.start)
	}
	return s.dur
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Find returns the first child span (depth-first) with the given name,
// or nil — a test convenience.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range kids {
		if c.Name() == name {
			return c
		}
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// Render formats the span tree as an indented report, one span per
// line: name, duration, then attrs in insertion order.
func (s *Span) Render() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.render(&b, 0)
	return strings.TrimRight(b.String(), "\n")
}

func (s *Span) render(b *strings.Builder, depth int) {
	s.mu.Lock()
	name, dur, running := s.name, s.dur, s.running
	if running {
		dur = time.Since(s.start)
	}
	attrs := append([]Attr(nil), s.attrs...)
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()

	fmt.Fprintf(b, "%s%s %s", strings.Repeat("  ", depth), name, dur.Round(time.Microsecond))
	for _, a := range attrs {
		fmt.Fprintf(b, " %s=%s", a.Key, a.Val)
	}
	if running {
		b.WriteString(" (running)")
	}
	b.WriteString("\n")
	for _, c := range kids {
		c.render(b, depth+1)
	}
}

// sortedKeys returns m's keys sorted, shared by the registry renderers.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
