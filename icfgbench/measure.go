package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of positive ratios (0 for none).
func geomean(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	var sum float64
	for _, r := range ratios {
		sum += math.Log(r)
	}
	return math.Exp(sum / float64(len(ratios)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// medianSetup runs set-up reps times and returns the last state plus the
// median wall time in seconds. Every repetition but the last is released
// through drop, so set-up work moved out of the measured loop shows up
// in setup_s without the repetitions piling up in memory.
func medianSetup[T any](reps int, setup func() (T, error), drop func(T)) (T, float64, error) {
	var st T
	var times []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			drop(st)
		}
		runtime.GC()
		start := time.Now()
		s, err := setup()
		if err != nil {
			return st, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		st = s
	}
	return st, median(times), nil
}

// setupReps is how many times each workload sets up per run; setup_s
// reports the median.
const setupReps = 15

// heapSampler records the peak of the Go heap (live and not yet
// collected objects) while the measurement runs. Oracle work pauses it:
// the emulator and reference rewrites are the benchmark's memory, not
// the system's.
type heapSampler struct {
	paused atomic.Bool
	peak   atomic.Uint64
	stop   chan struct{}
	wg     sync.WaitGroup
}

const heapObjects = "/memory/classes/heap/objects:bytes"

// startHeapSampler collects first, so the peak does not depend on when
// the collector next runs after set-up.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			if h.paused.Load() {
				continue
			}
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak.Load()) / (1 << 20)
}

// goRuntime snapshots the Go runtime counters the go.* layer metrics
// are deltas of.
type goRuntime struct {
	pauseNs, alloc, mallocs uint64
}

func readGoRuntime() goRuntime {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goRuntime{pauseNs: m.PauseTotalNs, alloc: m.TotalAlloc, mallocs: m.Mallocs}
}

// since returns the counters' growth from an earlier snapshot.
func (g goRuntime) since(before goRuntime) goRuntime {
	return goRuntime{pauseNs: g.pauseNs - before.pauseNs, alloc: g.alloc - before.alloc, mallocs: g.mallocs - before.mallocs}
}

func (g *goRuntime) add(d goRuntime) {
	g.pauseNs += d.pauseNs
	g.alloc += d.alloc
	g.mallocs += d.mallocs
}
