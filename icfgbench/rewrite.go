package main

import (
	"bytes"
	"fmt"
	"time"

	"icfgpatch/internal/bin"
	"icfgpatch/internal/core"
	"icfgpatch/internal/emu"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/rtlib"
)

// blockEmpty is Table 3's request: every basic block, empty payload.
func blockEmpty() instrument.Request {
	return instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty}
}

// rewriteResult is one rewrite operation's outcome.
type rewriteResult struct {
	out     []byte // serialised rewritten image (nil on error)
	stats   core.Stats
	metrics core.Metrics
	wall    time.Duration
	err     error
}

// rewrite runs one operation as a caller of the library sees it —
// serialised bytes in, serialised bytes out: bin.Unmarshal,
// core.Analyze, (*core.Analysis).Patch, Marshal. Only this interval is
// timed. With a non-nil tracer every call gets a span under one "op"
// root, and core's stage laps become child spans of analyze and patch.
func rewrite(raw []byte, acfg core.AnalysisConfig, opts core.Options, tr *tracer) (r rewriteResult) {
	start := time.Now()
	root := tr.beginAt("op", -1, start)
	defer func() {
		end := time.Now()
		r.wall = end.Sub(start)
		tr.endAt(root, end)
	}()

	sp := tr.begin("bin.unmarshal", root)
	b, err := bin.Unmarshal(raw)
	tr.end(sp)
	if err != nil {
		r.err = fmt.Errorf("unmarshal: %w", err)
		return r
	}
	sp = tr.begin("core.analyze", root)
	an, err := core.Analyze(b, acfg)
	tr.end(sp)
	if err != nil {
		r.err = err
		return r
	}
	tr.stages(sp, an.Metrics.Stages, "core.analyze.")
	sp = tr.begin("core.patch", root)
	res, err := an.Patch(opts)
	tr.end(sp)
	if err != nil {
		r.err = err
		return r
	}
	tr.stages(sp, res.Metrics.Stages, "core.patch.")
	sp = tr.begin("bin.marshal", root)
	r.out = res.Binary.Marshal()
	tr.end(sp)
	r.stats, r.metrics = res.Stats, res.Metrics
	// The image is serialised, so the rewritten binary is dead: its
	// pooled emit buffers go back for the next Patch, as in the service.
	res.Recycle()
	return r
}

// emulate runs an image with the runtime library preloaded — the
// execution oracle. cet enforces landing pads (CFI builds).
func emulate(b *bin.Binary, arg uint64, cet bool) (emu.Result, error) {
	lib, err := rtlib.Preload(b)
	if err != nil {
		return emu.Result{}, err
	}
	m, err := emu.Load(b, emu.Options{Runtime: lib, Arg: arg, EnforceCET: cet, MaxInstrs: 80_000_000})
	if err != nil {
		return emu.Result{}, err
	}
	return m.Run()
}

// oracle is the execution oracle's tally across a run.
type oracle struct {
	runs      int
	wall      time.Duration
	cetFaults int
}

// check emulates img and checks it against the original run's output,
// returning the cycle ratio rewritten/original.
func (o *oracle) check(img []byte, arg uint64, cet bool, orig emu.Result) (float64, error) {
	b, err := bin.Unmarshal(img)
	if err != nil {
		return 0, fmt.Errorf("rewritten image does not deserialise: %w", err)
	}
	start := time.Now()
	got, err := emulate(b, arg, cet)
	o.wall += time.Since(start)
	o.runs++
	if err != nil {
		if emu.IsFault(err, emu.FaultCET) {
			o.cetFaults++
		}
		return 0, fmt.Errorf("rewritten image faulted: %w", err)
	}
	if !bytes.Equal(got.Output, orig.Output) {
		return 0, fmt.Errorf("rewritten image output diverged from the original")
	}
	return float64(got.Cycles) / float64(orig.Cycles), nil
}
