// Command icfgbench is the repository's benchmark. It generates one
// workload's inputs from a seed, drives them through the rewriter's
// public packages (bin, core, and the service's HTTP handler), checks
// every operation against an oracle (the emulator, or a direct cold
// core rewrite), and prints the workload's metrics.
//
// Run it from the repository root through run.sh:
//
//	bash icfgbench/run.sh --workload corpus-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of BENCHMARK.json;
// with --trace 1 the per-layer ones. The last line of standard output
// is one JSON object; the lines before it repeat the metrics for
// people. The exit status is 1 when any operation failed verification.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// spec is the part of BENCHMARK.json the program checks itself against:
// the metric names and units it must print.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// runConfig is one run's settings.
type runConfig struct {
	seed   int64
	window time.Duration // how much rewrite (or load) time to measure
	trace  bool
	// layers lists every per-layer metric; a workload reports 0 for a
	// layer it does not exercise.
	layers []string
}

// report is what a workload measured.
type report struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	// failures names every failed operation.
	failures []string
}

func newReport(cfg runConfig) *report {
	r := &report{e2e: map[string]float64{}, layer: map[string]float64{}}
	for _, n := range cfg.layers {
		r.layer[n] = 0
	}
	return r
}

// fail records one failed operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*report, error){
	"corpus-cold":    corpusCold,
	"version-stream": versionStream,
	"service-closed": serviceClosed,
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: corpus-cold, version-stream or service-closed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics from a traced run, 0 the end-to-end ones")
	flag.Parse()

	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "icfgbench: %v\n", err)
		return 2
	}
	w, ok := workloads[*name]
	if !ok || !sp.hasWorkload(*name) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "icfgbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		return 2
	}
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d go=%s workload=%s seed=%d seconds=%d trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *name, *seed, *seconds, *trace)

	cfg := runConfig{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		trace:  *trace == 1,
	}
	for _, m := range sp.PerLayer {
		cfg.layers = append(cfg.layers, m.Name)
	}
	rep, err := w(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "icfgbench: %s: %v\n", *name, err)
		return 1
	}
	want, got := sp.EndToEnd, rep.e2e
	if cfg.trace {
		want, got = sp.PerLayer, rep.layer
	}
	out, err := render(want, got)
	if err != nil {
		fmt.Fprintf(os.Stderr, "icfgbench: %s: %v\n", *name, err)
		return 1
	}
	for _, f := range rep.failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]outValue `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "icfgbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if rep.failed > 0 || rep.attempted == 0 {
		return 1
	}
	return 0
}

type outValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &sp, nil
}

func (sp *spec) hasWorkload(name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// render pairs every wanted metric with its measured value and prints
// one line per metric. A metric the workload did not produce, or one it
// produced that the definition does not list, is a benchmark bug.
func render(want []metricSpec, got map[string]float64) (map[string]outValue, error) {
	out := map[string]outValue{}
	var missing []string
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not a number (%v)", m.Name, v)
		}
		out[m.Name] = outValue{Value: v, Unit: m.Unit}
		fmt.Printf("%-40s %14.6g %s\n", m.Name, v, m.Unit)
	}
	var extra []string
	for n := range got {
		if _, ok := out[n]; !ok {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		return nil, errors.New(fmt.Sprint("metrics do not match the benchmark definition: missing ", missing, ", unlisted ", extra))
	}
	return out, nil
}
