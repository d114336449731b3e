package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"icfgpatch/internal/core"
)

// span is one traced call: a layer boundary the benchmark crosses, with
// the span that caused it. Times are offsets from the tracer's base.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory for one run. A nil *tracer records
// nothing, so the untraced path is the traced path minus the clock
// reads.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	return t.beginAt(name, parent, time.Now())
}

func (t *tracer) end(id int) {
	if t != nil {
		t.endAt(id, time.Now())
	}
}

// beginAt opens a span that started at start. A span whose start and
// end are the caller's own clock readings lasts exactly as long as the
// caller measured.
func (t *tracer) beginAt(name string, parent int, start time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(start.Sub(t.base))})
	return len(t.spans) - 1
}

func (t *tracer) endAt(id int, end time.Time) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(end.Sub(t.base))
}

// stageNames maps core's pipeline stage names onto span names. The
// analysis stages appear in both the Analysis's and the Patch Result's
// stage lists; only the analysis span records them.
var stageNames = map[string]string{
	core.StageCFG:         "core.analyze.cfg",
	core.StageFuncPtr:     "core.analyze.funcptr",
	core.StagePlan:        "core.patch.plan",
	core.StageLayout:      "core.patch.layout",
	core.StageEmit:        "core.patch.emit",
	core.StageTrampolines: "core.patch.trampolines",
	core.StagePointers:    "core.patch.pointer-rewrite",
	core.StageFinalize:    "core.patch.finalize",
}

// stages records core's stage laps as child spans of parent, laid end
// to end from the parent's start. Only stages whose span name has the
// given prefix are recorded, which is how the copied analysis stages in
// a Patch result are counted once.
func (t *tracer) stages(parent int, st []core.StageMetric, prefix string) {
	if t == nil {
		return
	}
	at := t.spans[parent].Start
	for _, s := range st {
		name := stageNames[s.Name]
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		t.spans = append(t.spans, span{Name: name, Parent: parent, Start: at, End: at + int64(s.Wall)})
		at += int64(s.Wall)
	}
}

// child records an already-measured interval as a span.
func (t *tracer) child(name string, parent int, start time.Time, d time.Duration) {
	t.endAt(t.beginAt(name, parent, start), start.Add(d))
}

// layerTimes is the per-name aggregate of a span set: total duration
// and self time (duration minus what child spans cover), in ms.
type layerTimes struct {
	total, self map[string]float64
	roots       float64 // summed duration of root spans named "op"
	ops         int     // number of "op" roots
	// worst is the span whose self time falls furthest below its
	// tolerance (see check), and over how much (ms; <= 0 when none does).
	worst     string
	worstOver float64
}

func (t *tracer) aggregate() layerTimes {
	lt := layerTimes{total: map[string]float64{}, self: map[string]float64{}}
	if t == nil {
		return lt
	}
	childSum := make([]int64, len(t.spans))
	children := make([]int, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.End - s.Start
			children[s.Parent]++
		}
	}
	for i, s := range t.spans {
		d := float64(s.End-s.Start) / 1e6
		self := float64(s.End-s.Start-childSum[i]) / 1e6
		lt.total[s.Name] += d
		lt.self[s.Name] += self
		if s.Parent < 0 && s.Name == "op" {
			lt.roots += d
			lt.ops++
		}
		// Stage laps come rounded to the microsecond and the service's
		// work time truncated to it, so each child may overshoot by 1 µs.
		if over := -self - 1e-3*float64(children[i]+1); over > lt.worstOver {
			lt.worst, lt.worstOver = s.Name, over
		}
	}
	return lt
}

// check fails a traced run whose layer times do not reconcile with its
// end-to-end figures. No span's children may cover more than the span
// itself (beyond rounding): a negative self time is a stage counted
// twice or a lap longer than its parent. And the "op" roots must add up
// to the traced operations' measured latencies, tracedLat (ms), to
// within a microsecond per operation, so the layer times split exactly
// the time the end-to-end metrics are computed from.
func (lt layerTimes) check(tracedLat float64) error {
	if lt.worstOver > 0 {
		return fmt.Errorf("traced span %s has children longer than itself by %.3f ms", lt.worst, lt.worstOver)
	}
	if math.Abs(lt.roots-tracedLat) > 1e-3*float64(lt.ops+1) {
		return fmt.Errorf("traced operations' spans (%.3f ms) do not add up to their measured latency (%.3f ms)", lt.roots, tracedLat)
	}
	return nil
}

// rewriteLayers fills the bin.* and core.* time metrics from a rewrite
// workload's spans, per traced pass.
func rewriteLayers(layer map[string]float64, lt layerTimes, passes float64) {
	for _, n := range []string{"bin.unmarshal", "bin.marshal", "core.analyze", "core.patch"} {
		layer[n+"_ms.sum"] = lt.total[n] / passes
	}
	for _, n := range stageNames {
		layer[n+"_ms.sum"] = lt.total[n] / passes
	}
	layer["core.analyze.unstaged_ms.sum"] = lt.self["core.analyze"] / passes
	layer["core.patch.unstaged_ms.sum"] = lt.self["core.patch"] / passes
}

// spanDir receives the spans of traced runs.
const spanDir = ".bench_build/spans"

// write saves the spans as JSON lines under dir (best effort: the spans
// are a by-product; the metrics are already computed from memory).
func (t *tracer) write(dir, file string) {
	if t == nil || len(t.spans) == 0 {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "icfgbench: spans not written: %v\n", err)
		return
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		fmt.Fprintf(os.Stderr, "icfgbench: spans not written: %v\n", err)
		return
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			break
		}
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "icfgbench: spans not written: %v\n", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "icfgbench: spans not written: %v\n", err)
	}
}
