package experiments

import (
	"errors"
	"fmt"
	"strings"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/workload"
)

// FirefoxMode is one rewriting mode's outcome on libxul.so.
type FirefoxMode struct {
	Mode   string
	Failed bool
	Reason string
	// LatencyMean/Max are overheads on the Web-Latency-Benchmark-like
	// workload; JetStream* are score reductions on the JetStream2-like
	// workload (scores are inversely proportional to cycles).
	LatencyMean, LatencyMax     float64
	JetStreamMean, JetStreamMax float64
	Coverage                    float64
	SizeInc                     float64
	Traps                       int
}

// FirefoxResult is the Section 8.2 libxul.so experiment.
type FirefoxResult struct {
	Funcs      int
	Modes      []FirefoxMode
	EgalitoErr string
}

// firefoxRuns is how many load-base variations stand in for the paper's
// repeated benchmark runs (ASLR-style variance).
const firefoxRuns = 6

// Firefox runs the libxul.so experiment: rewrite the huge mixed
// C++/Rust library in the three modes, drive the two browser benchmarks,
// and reproduce the dir-mode failure (trap trampolines installed in
// library destructors hit the Dyninst-10.2 runtime library defect the
// paper reports — modelled as a failure whenever dir places traps inside
// dtor functions).
func Firefox() (*FirefoxResult, error) {
	p, err := workload.LibxulCached(arch.X64)
	if err != nil {
		return nil, err
	}
	res := &FirefoxResult{Funcs: len(p.Binary.FuncSymbols())}
	res.EgalitoErr = "irlower: unsupported Rust meta-data (Egalito segfaults on libxul.so)"

	for _, mode := range []core.Mode{core.ModeDir, core.ModeJT, core.ModeFuncPtr} {
		m := FirefoxMode{Mode: mode.String()}
		rw, err := core.Rewrite(p.Binary, core.Options{Mode: mode, Request: blockEmpty(), Verify: true})
		if err != nil {
			m.Failed, m.Reason = true, err.Error()
			res.Modes = append(res.Modes, m)
			continue
		}
		m.Coverage = rw.Stats.Coverage()
		m.SizeInc = rw.Stats.SizeIncrease()
		m.Traps = rw.Metrics.TrapCount()
		if mode == core.ModeDir && trapsInDtors(p, rw) {
			m.Failed = true
			m.Reason = "runtime library bug handling trap trampolines installed in library destructors (modelled Dyninst-10.2 defect)"
			res.Modes = append(res.Modes, m)
			continue
		}
		var latOv, jsOv []float64
		ok := true
		for _, cmd := range []uint64{workload.CmdLatencyBenchmark, workload.CmdJetStream} {
			for i := 0; i < firefoxRuns; i++ {
				// Each repetition drives a different input mix, the way
				// repeated browser benchmark runs do.
				arg := cmd + uint64(i)<<8
				orig, err := run(p.Binary, runOpts{arg: arg})
				if err != nil {
					return nil, err
				}
				got, err := run(rw.Binary, runOpts{arg: arg})
				if err != nil {
					m.Failed, m.Reason = true, err.Error()
					ok = false
					break
				}
				if !sameOutput(got, orig) {
					m.Failed, m.Reason = true, "output diverged"
					ok = false
					break
				}
				ov := overhead(got.Cycles, orig.Cycles)
				if cmd == workload.CmdLatencyBenchmark {
					latOv = append(latOv, ov)
				} else {
					// Score reduction: score ∝ 1/cycles.
					jsOv = append(jsOv, 1-float64(orig.Cycles)/float64(got.Cycles))
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			m.LatencyMax, m.LatencyMean = aggregate(latOv)
			m.JetStreamMax, m.JetStreamMean = aggregate(jsOv)
		}
		res.Modes = append(res.Modes, m)
	}
	return res, nil
}

// Failures lists the modes that failed, for exit-status reporting.
func (r *FirefoxResult) Failures() []string {
	var out []string
	for _, m := range r.Modes {
		if m.Failed {
			out = append(out, fmt.Sprintf("libxul/%s: %s", m.Mode, m.Reason))
		}
	}
	return out
}

// trapsInDtors reports whether any trap trampoline landed inside a
// destructor function.
func trapsInDtors(p *workload.Program, rw *core.Result) bool {
	for _, site := range rw.TrapSites {
		if f, ok := p.Binary.FuncAt(site); ok && strings.HasPrefix(f.Name, "dtor") {
			return true
		}
	}
	return false
}

// Render formats the Firefox experiment.
func (r *FirefoxResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Firefox libxul.so experiment (%d functions)\n", r.Funcs)
	for _, m := range r.Modes {
		if m.Failed {
			fmt.Fprintf(&b, "  %-8s FAILED: %s\n", m.Mode, m.Reason)
			continue
		}
		fmt.Fprintf(&b, "  %-8s latency %s mean / %s max; jetstream score -%s mean / -%s max; coverage %s; size +%s; traps %d\n",
			m.Mode, pct(m.LatencyMean), pct(m.LatencyMax),
			pct(m.JetStreamMean), pct(m.JetStreamMax),
			pct(m.Coverage), pct(m.SizeInc), m.Traps)
	}
	fmt.Fprintf(&b, "  Egalito: %s\n", r.EgalitoErr)
	return b.String()
}

// DockerResult is the Section 8.2 Docker experiment.
type DockerResult struct {
	Funcs          int
	DirEqualsJT    bool
	FuncPtrFailed  bool
	FuncPtrReason  string
	Commands       int
	CommandsOK     int
	MeanOverhead   float64
	MaxOverhead    float64
	Coverage       float64
	SizeInc        float64
	EgalitoErr     string
	TracebackWalks uint64
}

// Docker runs the Go binary experiment: dir and jt coincide (no jump
// tables), func-ptr refuses the function table, RA translation keeps the
// Go runtime's stack walks alive, and all 13 commands behave.
func Docker() (*DockerResult, error) {
	p, err := workload.DockerCached(arch.X64)
	if err != nil {
		return nil, err
	}
	res := &DockerResult{Funcs: len(p.Binary.FuncSymbols()), Commands: workload.DockerCommands}
	res.EgalitoErr = "irlower: unsupported meta-data in Go binary"

	dir, err := core.Rewrite(p.Binary, core.Options{Mode: core.ModeDir, Request: blockEmpty(), Verify: true})
	if err != nil {
		return nil, err
	}
	jt, err := core.Rewrite(p.Binary, core.Options{Mode: core.ModeJT, Request: blockEmpty(), Verify: true})
	if err != nil {
		return nil, err
	}
	// Go's compiler emits no jump tables: dir and jt produce identical
	// images.
	res.DirEqualsJT = string(dir.Binary.Marshal()) == string(jt.Binary.Marshal())
	res.Coverage = jt.Stats.Coverage()
	res.SizeInc = jt.Stats.SizeIncrease()

	if _, err := core.Rewrite(p.Binary, core.Options{Mode: core.ModeFuncPtr, Request: blockEmpty(), Verify: true}); err != nil {
		res.FuncPtrFailed = errors.Is(err, core.ErrImpreciseFuncPtrs)
		res.FuncPtrReason = err.Error()
	}

	var ovs []float64
	for cmd := uint64(1); cmd <= uint64(res.Commands); cmd++ {
		orig, err := run(p.Binary, runOpts{arg: cmd})
		if err != nil {
			return nil, fmt.Errorf("docker original command %d: %w", cmd, err)
		}
		got, err := run(jt.Binary, runOpts{arg: cmd})
		if err != nil || !sameOutput(got, orig) {
			continue
		}
		res.CommandsOK++
		res.TracebackWalks += got.Walks
		ovs = append(ovs, overhead(got.Cycles, orig.Cycles))
	}
	res.MaxOverhead, res.MeanOverhead = aggregate(ovs)
	return res, nil
}

// Failures lists the command runs that diverged or faulted, for
// exit-status reporting. The func-ptr refusal is the paper's designed
// outcome and therefore not a failure here.
func (r *DockerResult) Failures() []string {
	if r.CommandsOK == r.Commands {
		return nil
	}
	return []string{fmt.Sprintf("docker: only %d/%d commands behaved under the jt rewrite", r.CommandsOK, r.Commands)}
}

// Render formats the Docker experiment.
func (r *DockerResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Docker experiment (%d functions, Go)\n", r.Funcs)
	fmt.Fprintf(&b, "  dir == jt (no jump tables): %v\n", r.DirEqualsJT)
	fmt.Fprintf(&b, "  func-ptr failed on Go function tables: %v (%s)\n", r.FuncPtrFailed, r.FuncPtrReason)
	fmt.Fprintf(&b, "  commands correct: %d/%d (traceback walks: %d)\n", r.CommandsOK, r.Commands, r.TracebackWalks)
	fmt.Fprintf(&b, "  overhead: %s mean / %s max; coverage %s; size +%s\n",
		pct(r.MeanOverhead), pct(r.MaxOverhead), pct(r.Coverage), pct(r.SizeInc))
	fmt.Fprintf(&b, "  Egalito: %s\n", r.EgalitoErr)
	return b.String()
}
