// HTTP transport: the service's mux over the wire format defined in
// internal/service/wire (see that package for the /rewrite frame).
//
//	POST /rewrite — one rewrite (wire frame in the 200 body)
//	GET /stats   — JSON ServerStats
//	GET /healthz — 200 "ok"
//	GET /metrics — Prometheus text exposition (internal/obs registry)
//	GET /debug/pprof/ — standard net/http/pprof profiles
//
// Adding trace=1 to /rewrite returns the request's rendered span tree
// in the Reply's trace field.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"

	"icfgpatch/internal/profile"
	"icfgpatch/internal/service/wire"
)

// Reply is the JSON half of a /rewrite response; see wire.Reply.
type Reply = wire.Reply

// Handler returns the HTTP interface to the service, including the
// observability endpoints: /metrics for the Prometheus registry and the
// pprof profiles, wired explicitly because the service builds its own
// mux rather than using http.DefaultServeMux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/rewrite", s.handleRewrite)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/metrics", s.metrics.reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleRewrite(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// The body cap is the door's OOM guard: one oversized POST gets a
	// 413 instead of an unbounded ReadAll allocation.
	raw, ok := wire.ReadBody(w, r, s.cfg.MaxRequestBytes)
	if !ok {
		return
	}
	s.ServeRewrite(w, r, raw, "")
}

// MaxRequestBytes reports the door cap this server enforces, so
// embedders (the cluster node) apply the same cap at their own doors.
func (s *Server) MaxRequestBytes() int64 { return s.cfg.MaxRequestBytes }

// ServeRewrite serves one rewrite whose body has already been read —
// the seam the cluster node uses to serve a request it decided to
// handle locally (it must read the body first to route by content
// hash). hash is store.Hash(raw) when the caller has already computed
// it, so the body is hashed once, or "" to compute it here; it is
// dropped for a profile=1 body, whose binary is only part of raw.
// Options and trace flag come from r's query string; the frame goes to
// w.
func (s *Server) ServeRewrite(w http.ResponseWriter, r *http.Request, raw []byte, hash string) {
	opts, t, err := wire.ParseRewriteQuery(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if t["profile"] == "1" || t["profile"] == "true" {
		// profile=1 bodies carry a profile artifact ahead of the binary.
		// Bad framing is the sender's bug (400); a profile that frames
		// correctly but fails its own hardened decode — or decodes to a
		// trivial artifact — degrades to the unguided rewrite, by the
		// profile contract: guidance is advisory, never a failure mode.
		pb, bb, err := wire.SplitProfile(raw)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		raw, hash = bb, ""
		if p, err := profile.Decode(pb); err == nil && !p.Trivial() {
			opts.Profile = p
		}
	}
	submit := s.Submit
	if t["lane"] == "batch" {
		// lane=batch puts the request on the scheduler's batch lane —
		// the path cluster peers use when forwarding each other's batch
		// items, so a forwarded fleet job cannot jump the priority
		// fence on the remote node.
		submit = s.SubmitBatch
	}
	resp, err := submit(r.Context(), Request{Raw: raw, Hash: hash, Opts: opts, Trace: t["trace"] == "1" || t["trace"] == "true"})
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	resp.TraceText = resp.Trace.Render()
	wire.ServeFrame(w, &resp.Reply, resp.Image)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

// statusFor maps service errors onto HTTP statuses the client can act
// on: retryable rejections are distinct from rewrite failures.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request
	default:
		return http.StatusUnprocessableEntity
	}
}
