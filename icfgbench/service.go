package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/core"
	"icfgpatch/internal/emu"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/service"
	"icfgpatch/internal/service/wire"
	"icfgpatch/internal/store"
	"icfgpatch/internal/workload"
)

// Service workload sizing for a shared two-core machine: svcConns
// callers (one per core) on as many connections, a server with as many
// workers, and caches smaller than the working set, so results and
// analyses are evicted while the load runs.
const (
	svcConns           = 2
	svcResultEntries   = 24 // working set: 39 (binary, options) pairs
	svcAnalysisEntries = 12 // working set: 23 (binary, mode) analyses, plus each new version and first-seen binary
	// svcFuncEntries holds every function identity the known binaries
	// need in their modes, so new versions take the delta path.
	svcFuncEntries = 16384
	// svcZipfS is the Zipf exponent of the working set's popularity. It
	// is an assumption, not a measurement: a skewed popularity in
	// which a few pairs are hot and the tail is evicted.
	svcZipfS = 1.4
	// svcPassRequests is one pass's request sequence: 12 mix blocks.
	svcPassRequests = 12 * (mixRepeat + mixShape + mixDelta + mixCold)
	// svcTimeout fails a request that has not completed after this long.
	svcTimeout = 60 * time.Second
)

// The request mix per block of 40: repeated (binary, options) pairs,
// new request shapes on known binaries, new versions of known binaries,
// and first-seen binaries. No measured rewrite-service traffic exists
// to take the proportions from; they are an assumption that only keeps
// the order "mostly repeats, then new shapes, then new versions, a few
// first-seen binaries", and every metric of the workload is read under
// this mix.
const (
	mixRepeat = 32
	mixShape  = 5
	mixDelta  = 2
	mixCold   = 1
)

// svcBody is one request body (a serialised binary) and what the
// oracle needs to check replies for it.
type svcBody struct {
	name  string
	raw   []byte
	hash  string
	text  int
	arg   uint64
	funcs []string // function names, for new request shapes
	gap   uint64
}

// svcRequest is one request of the sequence.
type svcRequest struct {
	body  *svcBody
	query string
	kind  string
}

// svcInputs is the generated load: the working set of repeated pairs,
// which every fresh server is warmed with, and one pass's request
// sequence.
type svcInputs struct {
	working []svcRequest
	seq     []svcRequest
}

// queryFor encodes opts as a /rewrite query string.
func queryFor(opts core.Options) string {
	v, err := wire.EncodeOptions(opts)
	if err != nil {
		panic(err) // the benchmark only builds wire-expressible options
	}
	return v.Encode()
}

func newBody(name string, b *bin.Binary, arg uint64) *svcBody {
	raw := b.Marshal()
	body := &svcBody{name: name, raw: raw, hash: store.Hash(raw), text: len(b.Text().Data), arg: arg}
	for _, s := range b.FuncSymbols() {
		if s.Size > 0 {
			body.funcs = append(body.funcs, s.Name)
		}
	}
	if b.Arch == arch.PPC {
		body.gap = ppcInstrGap
	}
	return body
}

// buildServiceInputs generates the known binaries, the seeded request
// sequence, and the version chains and first-seen binaries it needs.
func buildServiceInputs(seed int64) (*svcInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	var known []*svcBody
	type gen struct {
		name string
		prog func() (*workload.Program, error)
		arg  uint64
	}
	suites := map[arch.Arch][]*workload.Program{}
	spec := func(a arch.Arch, name string) func() (*workload.Program, error) {
		return func() (*workload.Program, error) {
			if suites[a] == nil {
				suite, err := workload.SPECSuite(a, false)
				if err != nil {
					return nil, err
				}
				suites[a] = suite
			}
			for _, p := range suites[a] {
				if p.Profile.Name == name {
					return p, nil
				}
			}
			return nil, fmt.Errorf("no SPEC program %s", name)
		}
	}
	for _, g := range []gen{
		{"docker-x64", func() (*workload.Program, error) { return workload.Docker(arch.X64) }, workload.CmdLatencyBenchmark},
		{"602.gcc_s-x64", spec(arch.X64, "602.gcc_s"), 0},
		{"623.xalancbmk_s-x64", spec(arch.X64, "623.xalancbmk_s"), 0},
		{"600.perlbench_s-ppc", spec(arch.PPC, "600.perlbench_s"), 0},
		{"621.wrf_s-ppc", spec(arch.PPC, "621.wrf_s"), 0},
		{"600.perlbench_s-a64", spec(arch.A64, "600.perlbench_s"), 0},
		{"625.x264_s-a64", spec(arch.A64, "625.x264_s"), 0},
		{"657.xz_s-x64", spec(arch.X64, "657.xz_s"), 0},
	} {
		p, err := g.prog()
		if err != nil {
			return nil, err
		}
		known = append(known, newBody(g.name, p.Binary, g.arg))
	}

	// variants lists the option variants clients use on a binary.
	// docker-x64 has no func-ptr variant: conservative function-pointer
	// analysis refuses it.
	variants := func(b *svcBody) []core.Options {
		jt := core.Options{Mode: core.ModeJT, Request: blockEmpty(), Verify: true, InstrGap: b.gap}
		dir := jt
		dir.Mode = core.ModeDir
		counter := jt
		counter.Request.Payload = instrument.PayloadCounter
		funcEntry := counter
		funcEntry.Request.Where = instrument.FuncEntry
		out := []core.Options{jt, dir, counter, funcEntry}
		if b.name != "docker-x64" {
			fp := jt
			fp.Mode = core.ModeFuncPtr
			out = append(out, fp)
		}
		return out
	}
	// The working set: every known binary under every variant. The
	// warm-up sends each pair once.
	var working []svcRequest
	for _, b := range known {
		for _, o := range variants(b) {
			working = append(working, svcRequest{body: b, query: queryFor(o), kind: "repeat"})
		}
	}

	// Version chains of docker-x64, 602.gcc_s-x64 and
	// 600.perlbench_s-a64: the delta path needs each one's previous
	// version in the server's unit store, which the warm-up's jt requests
	// put there.
	chains := []*svcBody{known[0], known[1], known[5]}
	chainCur := make([]*bin.Binary, len(chains))
	for i, b := range chains {
		v, err := bin.Unmarshal(b.raw)
		if err != nil {
			return nil, err
		}
		chainCur[i] = v
	}
	// Repeated pairs follow a Zipf popularity over a fixed ranking, so a
	// few pairs are hot and the tail is evicted; the seed only draws.
	popular := make([]svcRequest, len(working))
	for i, j := range rand.New(rand.NewSource(1)).Perm(len(working)) {
		popular[i] = working[j]
	}
	zipf := rand.NewZipf(rng, svcZipfS, 1, uint64(len(popular)-1))
	// The mix is stratified: every block of 40 requests holds the
	// same number of each kind, in seeded order, and shapes, versions
	// and first-seen binaries rotate over their binaries, so two seeds
	// differ in timing and draws but not in the mix's proportions.
	var block []string
	var shapeN, deltaN, coldN int
	next := func() (svcRequest, error) {
		if len(block) == 0 {
			for _, k := range []struct {
				kind string
				n    int
			}{{"repeat", mixRepeat}, {"shape", mixShape}, {"delta", mixDelta}, {"cold", mixCold}} {
				for i := 0; i < k.n; i++ {
					block = append(block, k.kind)
				}
			}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		kind := block[0]
		block = block[1:]
		switch kind {
		case "repeat":
			return popular[zipf.Uint64()], nil
		case "shape":
			// A new request shape on a known binary: a seeded function
			// subset with counters, in one of the binary's modes.
			b := known[shapeN%len(known)]
			o := variants(b)[shapeN/len(known)%3]
			shapeN++
			o.Request.Payload = instrument.PayloadCounter
			n := 1 + rng.Intn(6)
			for _, i := range rng.Perm(len(b.funcs))[:n] {
				o.Request.Funcs = append(o.Request.Funcs, b.funcs[i])
			}
			sort.Strings(o.Request.Funcs)
			return svcRequest{body: b, query: queryFor(o), kind: kind}, nil
		case "delta":
			ci := deltaN % len(chains)
			deltaN++
			v, _, err := workload.MutateVersion(chainCur[ci], 1+rng.Intn(4), rng.Int63())
			if err != nil {
				return svcRequest{}, err
			}
			chainCur[ci] = v
			b := newBody(fmt.Sprintf("%s-v%d", chains[ci].name, deltaN), v, chains[ci].arg)
			o := variants(chains[ci])[0]
			return svcRequest{body: b, query: queryFor(o), kind: kind}, nil
		default:
			// First-seen binaries rotate over the arches and four sizes;
			// the seed draws their contents.
			a := []arch.Arch{arch.X64, arch.PPC, arch.A64}[coldN%3]
			funcs := 16 + 10*(coldN/3%4)
			coldN++
			p, err := workload.Generate(a, false, workload.Profile{
				Name: fmt.Sprintf("first-seen-%d", coldN), Seed: rng.Int63(), Lang: "c",
				Funcs: funcs, SwitchFrac: 0.3, SpillFrac: 0.1, TinyFrac: 0.1,
				TailCallFrac: 0.04, Iters: 20,
			})
			if err != nil {
				return svcRequest{}, err
			}
			b := newBody(p.Profile.Name, p.Binary, 0)
			o := core.Options{Mode: core.Mode(coldN % 2), Request: blockEmpty(), Verify: true, InstrGap: b.gap}
			return svcRequest{body: b, query: queryFor(o), kind: kind}, nil
		}
	}
	in := &svcInputs{working: working}
	for len(in.seq) < svcPassRequests {
		rq, err := next()
		if err != nil {
			return nil, err
		}
		in.seq = append(in.seq, rq)
	}
	return in, nil
}

// svcServer is one service instance on a loopback listener.
type svcServer struct {
	srv  *service.Server
	hs   *http.Server
	url  string
	done chan struct{} // closed when hs.Serve has returned
}

// startServer starts a fresh server and sends every warm-up request
// once, so the measured load starts from warm caches.
func startServer(c *http.Client, warm []svcRequest) (*svcServer, error) {
	srv := service.New(service.Config{
		Workers: svcConns, AnalysisEntries: svcAnalysisEntries, ResultEntries: svcResultEntries,
		FuncEntries: svcFuncEntries,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	s := &svcServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once closed
	}()
	for _, rq := range warm {
		if _, err := post(c, s.url, rq); err != nil {
			s.close()
			return nil, fmt.Errorf("warming %s?%s: %w", rq.body.name, rq.query, err)
		}
	}
	return s, nil
}

func (s *svcServer) close() {
	_ = s.hs.Close() // every request has completed: nothing to drain
	<-s.done
	_ = s.srv.Shutdown(context.Background())
}

// stats reads the server's /stats.
func (s *svcServer) stats(c *http.Client) (service.ServerStats, error) {
	var st service.ServerStats
	resp, err := c.Get(s.url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

func newSvcClient() *http.Client {
	return &http.Client{
		Timeout: svcTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost: svcConns, MaxIdleConnsPerHost: svcConns, DisableCompression: true,
		},
	}
}

// svcReply is one completed request as the client saw it. img holds
// the image until the caller has stopped the clock and hashed it.
type svcReply struct {
	reply     *wire.Reply
	img       []byte
	image     [sha256.Size]byte
	readFrame time.Duration
}

// post sends one request and reads its reply frame. Any status but 200
// is an error.
func post(c *http.Client, base string, rq svcRequest) (svcReply, error) {
	var out svcReply
	resp, err := c.Post(base+"/rewrite?"+rq.query, "application/octet-stream", bytes.NewReader(rq.body.raw))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // diagnostic text only
		return out, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	start := time.Now()
	reply, image, err := wire.ReadFrame(resp.Body)
	out.readFrame = time.Since(start)
	if err != nil {
		return out, err
	}
	out.reply, out.img = reply, image
	return out, nil
}

// svcResult is one request's outcome.
type svcResult struct {
	rq      svcRequest
	start   time.Time
	latency time.Duration
	reply   svcReply
	err     error
}

// runPass sends the sequence from svcConns callers, each sending its
// next request when its previous reply is complete, and returns the
// results in sequence order with the pass's wall time.
func runPass(c *http.Client, base string, seq []svcRequest) ([]svcResult, time.Duration) {
	res := make([]svcResult, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < svcConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(seq); i = int(next.Add(1) - 1) {
				r := svcResult{rq: seq[i], start: time.Now()}
				r.reply, r.err = post(c, base, seq[i])
				r.latency = time.Since(r.start)
				r.reply.image = sha256.Sum256(r.reply.img)
				r.reply.img = nil
				res[i] = r
			}
		}()
	}
	wg.Wait()
	return res, time.Since(start)
}

// The open-loop probe of a traced run: Poisson arrivals on a fresh,
// warmed server for svcRung each, starting at a quarter of the rate the
// closed loop sustained and climbing by svcOpenStep until a rung's p99
// latency from due time exceeds svcOpenLimit (at most svcOpenRungs).
// Open-loop figures on a shared two-core machine vary too much between
// runs to gate on, so they are per-layer diagnostics only.
const (
	svcRung      = 1500 * time.Millisecond
	svcOpenStep  = 1.25
	svcOpenRungs = 10
	svcOpenLimit = 50 * time.Millisecond
)

// openLoop runs the probe from closedRPS, the rate the closed loop
// sustained, fills the service.open.* and generator metrics, and
// returns every result for the oracle.
func openLoop(c *http.Client, in *svcInputs, closedRPS float64, seed int64, layer map[string]float64) ([]svcResult, error) {
	rng := rand.New(rand.NewSource(seed))
	var all []svcResult
	lim := ms(svcOpenLimit)
	passRate, passP99 := 0.0, 0.0
	maxRPS := 0.0
	rate := closedRPS / 4
	for rung := 0; rung < svcOpenRungs; rung, rate = rung+1, rate*svcOpenStep {
		srv, err := startServer(c, in.working)
		if err != nil {
			return nil, err
		}
		res, lag, backlog := runOpen(c, srv.url, in.seq, rate, rng)
		srv.close()
		all = append(all, res...)
		var lat []float64
		failed := false
		for _, r := range res {
			lat = append(lat, ms(r.latency))
			failed = failed || r.err != nil
		}
		p99 := quantile(lat, 0.99)
		if rung == 0 {
			layer["service.open.latency_ms.p99"] = p99
			layer["service.generator_lag_ms.p99"] = quantile(lag, 0.99)
			layer["service.backlog.max"] = float64(backlog)
		}
		if !failed && p99 <= lim {
			passRate, passP99 = rate, p99
			continue
		}
		// Interpolate the limit's crossing between the last rung that met
		// it and this one.
		maxRPS = passRate
		if passRate > 0 && p99 > lim {
			maxRPS += (rate - passRate) * (lim - passP99) / (p99 - passP99)
		}
		break
	}
	if maxRPS == 0 {
		maxRPS = passRate // no rung missed the limit
	}
	layer["service.open.max_rps"] = maxRPS
	return all, nil
}

// runOpen offers requests from seq, cycling, at Poisson arrivals of the
// given rate for svcRung: each is sent at its due time whatever is
// still outstanding and timed from then. It returns once all have
// completed, with each request's send lag and the largest number
// outstanding at once.
func runOpen(c *http.Client, base string, seq []svcRequest, rate float64, rng *rand.Rand) ([]svcResult, []float64, int) {
	var due []time.Duration
	for at := time.Duration(rng.ExpFloat64() / rate * float64(time.Second)); at < svcRung; at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second)) {
		due = append(due, at)
	}
	res := make([]svcResult, len(due))
	lag := make([]float64, len(due))
	var outstanding, peak atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, at := range due {
		d := start.Add(at)
		if w := time.Until(d); w > 0 {
			time.Sleep(w)
		}
		lag[i] = ms(time.Since(d))
		n := outstanding.Add(1)
		if n > peak.Load() {
			peak.Store(n) // only this goroutine writes peak
		}
		wg.Add(1)
		go func(i int, rq svcRequest, d time.Time) {
			defer wg.Done()
			defer outstanding.Add(-1)
			r := svcResult{rq: rq, start: d}
			r.reply, r.err = post(c, base, rq)
			r.latency = time.Since(d)
			r.reply.image = sha256.Sum256(r.reply.img)
			r.reply.img = nil
			res[i] = r
		}(i, seq[i%len(seq)], d)
	}
	wg.Wait()
	return res, lag, int(peak.Load())
}

// serviceClosed drives the service's HTTP handler on loopback from
// svcConns callers in a closed loop. One pass replays the seeded
// request sequence against a freshly started and warmed server, so
// every pass does the same work; passes run until their summed wall
// time reaches the window. Every reply image must equal the direct core
// result for its (binary, options), computed after the load; a non-200
// reply or a timeout is a failed request.
func serviceClosed(cfg runConfig) (*report, error) {
	rep := newReport(cfg)
	c := newSvcClient()
	defer c.CloseIdleConnections()
	type state struct {
		in  *svcInputs
		srv *svcServer
	}
	st, setupS, err := medianSetup(setupReps, func() (state, error) {
		in, err := buildServiceInputs(cfg.seed)
		if err != nil {
			return state{}, err
		}
		srv, err := startServer(c, in.working)
		return state{in, srv}, err
	}, func(s state) { s.srv.close() })
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setupS

	heap := startHeapSampler()
	loop := newPassLoop(cfg)
	var (
		all             []svcResult
		hits, misses    [3]float64 // results, analyses, funcs
		evictions       float64
		lat, work, wait []float64 // timed passes, ms
		frames          []float64
		paths           = map[string]float64{}
		rejected        int
		srv             = st.srv
	)
	for pass := 0; loop.next(); pass++ {
		if pass > 0 {
			if err := loop.aside(heap, func() (err error) {
				srv, err = startServer(c, st.in.working)
				return err
			}); err != nil {
				return nil, err
			}
		}
		before, err := srv.stats(c)
		if err != nil {
			srv.close()
			return nil, err
		}
		res, wall := runPass(c, srv.url, st.in.seq)
		after, err := srv.stats(c)
		srv.close()
		if err != nil {
			return nil, err
		}
		traceService(loop.tracer(), res)
		if pass > 0 {
			for i, pair := range [][2]store.Stats{{before.Results, after.Results}, {before.Analyses, after.Analyses}, {before.Funcs, after.Funcs}} {
				hits[i] += float64(pair[1].Hits - pair[0].Hits)
				misses[i] += float64(pair[1].Misses - pair[0].Misses)
				evictions += float64(pair[1].Evictions - pair[0].Evictions)
			}
		}
		for i, r := range res {
			if r.err != nil {
				if strings.HasPrefix(r.err.Error(), "HTTP 429") {
					rejected++
				}
				continue
			}
			loop.op(r.rq.kind, r.latency, r.rq.body.text)
			if pass == 0 {
				continue
			}
			lat = append(lat, ms(r.latency))
			w := float64(r.reply.reply.ElapsedUS) / 1000
			work = append(work, w)
			wait = append(wait, ms(r.latency)-w)
			frames = append(frames, ms(r.reply.readFrame))
			paths[service.ReplyCachePath(r.reply.reply)]++
			res[i].reply.reply = nil // the oracle needs only the image hash
		}
		all = append(all, res...)
		loop.done(wall)
	}
	rep.e2e["peak_heap_mb"] = heap.finish()
	loop.e2e(rep)
	rep.layer["service.latency_ms.p99"] = quantile(lat, 0.99)
	rep.layer["service.work_ms.p50"] = quantile(work, 0.5)
	rep.layer["service.work_ms.p99"] = quantile(work, 0.99)
	rep.layer["service.wait_ms.p50"] = quantile(wait, 0.5)
	rep.layer["service.wait_ms.p99"] = quantile(wait, 0.99)
	rep.layer["service.wire.read_frame_ms.p50"] = quantile(frames, 0.5)
	rep.layer["service.rejected_429"] = float64(rejected)
	for path, name := range map[string]string{"result-cache": "result_hit", "warm-analysis": "analysis_hit", "delta": "delta", "cold": "cold"} {
		rep.layer["service.path."+name+"_share"] = ratio(paths[path], float64(loop.ops))
	}
	for i, n := range []string{"results", "analyses", "funcs"} {
		rep.layer["store."+n+".hit_ratio"] = ratio(hits[i], hits[i]+misses[i])
	}
	rep.layer["store.evictions"] = evictions / loop.timed()
	// The pipeline counters (core.analyze.funcs_*, core.trampolines.*
	// and the like) stay 0 here: which requests the server replays from
	// its caches depends on how the two callers' requests interleave, so
	// its own work does not repeat for a fixed seed.

	if cfg.trace {
		open, err := openLoop(c, st.in, float64(loop.ops)/loop.wall.Seconds(), cfg.seed, rep.layer)
		if err != nil {
			return nil, err
		}
		all = append(all, open...)
	}

	orc := &oracle{}
	if err := verifyService(all, st.in.working, orc, rep); err != nil {
		return nil, err
	}
	rep.layer["emu.run_ms.sum"] = ms(orc.wall)
	rep.layer["emu.cet_faults"] = float64(orc.cetFaults)
	if err := loop.traceLayers(rep, "service-closed", func(lt layerTimes, passes float64) {
		for n, v := range lt.total {
			if strings.HasPrefix(n, "core.") {
				rep.layer[n+"_ms.sum"] = v / passes
			}
		}
	}); err != nil {
		return nil, err
	}
	fmt.Printf("service-closed: %d passes of %d requests from %d callers, result cache %d, analysis store %d, unit store %d\n",
		loop.n, len(st.in.seq), svcConns, svcResultEntries, svcAnalysisEntries, svcFuncEntries)
	return rep, nil
}

// traceService records each request of a pass as an "op" span with the
// server's work and the client's frame read as children; the op's self
// time is the wait: transport, body decode and queueing. The server's
// stage laps, parsed from the reply's metrics text, become children of
// the work span (analysis stages only when the request analysed).
func traceService(tr *tracer, res []svcResult) {
	if tr == nil {
		return
	}
	for _, r := range res {
		if r.err != nil {
			continue
		}
		op := tr.beginAt("op", -1, r.start)
		tr.endAt(op, r.start.Add(r.latency))
		work := time.Duration(r.reply.reply.ElapsedUS) * time.Microsecond
		frameStart := r.start.Add(r.latency - r.reply.readFrame)
		tr.child("service.work", op, frameStart.Add(-work), work)
		tr.child("service.wire.read_frame", op, frameStart, r.reply.readFrame)
		prefix := "core."
		if r.reply.reply.AnalysisHit || r.reply.reply.ResultHit {
			prefix = "core.patch."
		}
		if r.reply.reply.ResultHit {
			continue // a replayed result ran no stage
		}
		tr.stages(len(tr.spans)-2, parseStages(r.reply.reply.MetricsText), prefix)
	}
}

// parseStages reads the stage laps from core.Metrics.Render's first
// line ("stages: cfg=1.2ms plan=... total=...").
func parseStages(text string) []core.StageMetric {
	line, _, _ := strings.Cut(text, "\n")
	var out []core.StageMetric
	for _, f := range strings.Fields(strings.TrimPrefix(line, "stages:")) {
		name, val, ok := strings.Cut(f, "=")
		if !ok || name == "total" {
			continue
		}
		if d, err := time.ParseDuration(val); err == nil {
			out = append(out, core.StageMetric{Name: name, Wall: d})
		}
	}
	return out
}

// verifyService checks every reply against a direct, cold core result
// for its (binary, options): one core.Analyze per (binary, mode),
// independent of the server's stores, then Patch. It also runs the
// working set's images under the emulator and reads the image metrics
// on them: the working set does not depend on the seed.
func verifyService(all []svcResult, working []svcRequest, orc *oracle, rep *report) error {
	type akey struct {
		hash string
		mode core.Mode
	}
	analyses := map[akey]*core.Analysis{}
	refs := map[string][]byte{} // hash|query -> reference image
	stats := map[string]core.Stats{}
	reference := func(rq svcRequest) ([]byte, error) {
		k := rq.body.hash + "|" + rq.query
		if img, ok := refs[k]; ok {
			return img, nil
		}
		v, err := url.ParseQuery(rq.query)
		if err != nil {
			return nil, err
		}
		opts, err := wire.ParseOptions(v)
		if err != nil {
			return nil, err
		}
		ak := akey{rq.body.hash, opts.Mode}
		an, ok := analyses[ak]
		if !ok {
			b, err := bin.Unmarshal(rq.body.raw)
			if err != nil {
				return nil, err
			}
			if an, err = core.Analyze(b, core.AnalysisConfig{Mode: opts.Mode}); err != nil {
				return nil, err
			}
			analyses[ak] = an
		}
		res, err := an.Patch(opts)
		if err != nil {
			return nil, err
		}
		img := res.Binary.Marshal()
		res.Recycle()
		refs[k], stats[k] = img, res.Stats
		return img, nil
	}
	for _, r := range all {
		rep.attempted++
		label := fmt.Sprintf("service-closed %s %s?%s", r.rq.kind, r.rq.body.name, r.rq.query)
		if r.err != nil {
			rep.fail("%s: %v", label, r.err)
			continue
		}
		img, err := reference(r.rq)
		if err != nil {
			rep.fail("%s: direct core rewrite: %v", label, err)
			continue
		}
		if sha256.Sum256(img) != r.reply.image {
			rep.fail("%s: reply image differs from the direct core result", label)
		}
	}
	var ratios, sizes, cov []float64
	origs := map[string]emu.Result{}
	for _, rq := range working {
		img, err := reference(rq)
		if err != nil {
			return err
		}
		st := stats[rq.body.hash+"|"+rq.query]
		sizes = append(sizes, 1+st.SizeIncrease())
		cov = append(cov, st.Coverage())
		orig, ok := origs[rq.body.hash]
		if !ok {
			b, err := bin.Unmarshal(rq.body.raw)
			if err != nil {
				return err
			}
			start := time.Now()
			orig, err = emulate(b, rq.body.arg, false)
			orc.wall += time.Since(start)
			orc.runs++
			if err != nil {
				return fmt.Errorf("original %s faulted: %w", rq.body.name, err)
			}
			origs[rq.body.hash] = orig
		}
		ratio, err := orc.check(img, rq.body.arg, false, orig)
		if err != nil {
			rep.fail("service-closed working set %s?%s: %v", rq.body.name, rq.query, err)
			continue
		}
		ratios = append(ratios, ratio)
	}
	rep.e2e["runtime_overhead_pct.geomean"] = (geomean(ratios) - 1) * 100
	rep.e2e["size_increase_pct.geomean"] = (geomean(sizes) - 1) * 100
	rep.e2e["coverage_pct.mean"] = mean(cov) * 100
	return nil
}
