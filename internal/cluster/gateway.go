package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"icfgpatch/internal/obs"
	"icfgpatch/internal/service"
	"icfgpatch/internal/service/wire"
	"icfgpatch/internal/store"
)

// GatewayConfig configures a Gateway.
type GatewayConfig struct {
	// Peers is the cluster membership the gateway balances onto.
	Peers []string
	// Replicas must match the nodes' replication factor so the gateway's
	// failover candidates are exactly the peers that hold the caches.
	Replicas int
	// MaxRequestBytes caps /rewrite and /batch POST bodies (0:
	// wire.DefaultMaxBody; negative: unbounded), the same contract as
	// service.Config.MaxRequestBytes. The gateway is the outermost door,
	// so it is the first place an oversized body must die.
	MaxRequestBytes int64
	// HTTPClient overrides http.DefaultClient for forwards and probes.
	HTTPClient *http.Client
}

// Gateway is the cluster's thin stateless front door: it hashes each
// request's binary, forwards to the owning node (failing over through
// the replica set on transport death), and relays the response
// verbatim. It holds no caches and no rewrite machinery — kill it,
// restart it, run several; nothing is lost.
type Gateway struct {
	router
	cfg GatewayConfig
	reg *obs.Registry

	// jobOwner remembers which node accepted each batch job so follow-up
	// /batch/{id} requests land on the node that holds the job. It is
	// soft state: entries are bounded, and an unknown ID (gateway
	// restart, table overflow) degrades to probing the peers — the job
	// record on the owning node is the durable truth.
	jobMu    sync.Mutex
	jobOwner map[string]string
}

// maxJobOwners bounds the gateway's job routing table. Overflow resets
// it (soft state; lookups fall back to probing).
const maxJobOwners = 4096

// NewGateway builds a gateway over the peer set.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	ring, err := NewRing(cfg.Peers, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = DefaultReplicas
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	g := &Gateway{
		router:   router{ring: ring, health: NewHealth(), hc: hc, replicas: cfg.Replicas},
		cfg:      cfg,
		reg:      obs.NewRegistry(),
		jobOwner: map[string]string{},
	}
	g.forwards = g.reg.Counter("icfg_cluster_forwards_total",
		"rewrite requests forwarded to an owning peer")
	g.relayTruncated = g.reg.Counter("icfg_cluster_relay_truncated_total",
		"forwarded responses whose relay to the client died mid-body")
	g.reg.GaugeFunc("icfg_cluster_peers_healthy", "cluster peers currently believed reachable", "", "",
		func() float64 { return float64(g.health.CountHealthy(g.ring.peers)) })
	return g, nil
}

// StartProbes runs active /healthz sweeps every interval until ctx
// ends.
func (g *Gateway) StartProbes(ctx context.Context, interval time.Duration) {
	go g.health.ProbeLoop(ctx, g.hc, g.ring.peers, "", interval)
}

// Handler returns the gateway's HTTP surface: /rewrite and /batch
// (routed), /healthz, /metrics, and /cluster.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/rewrite", g.handleRewrite)
	mux.HandleFunc("POST /batch", g.handleBatchSubmit)
	mux.HandleFunc("/batch/", g.handleBatchFollow)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/metrics", g.reg.Handler())
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(Info{
			Peers:    g.ring.Peers(),
			Healthy:  g.health.CountHealthy(g.ring.peers),
			Replicas: g.replicas,
		})
	})
	return mux
}

func (g *Gateway) handleRewrite(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// Validate the query before burning a forward: the gateway is the
	// outermost door, and an option this build does not understand must
	// die here with a 400, the same parse the serve door runs.
	if _, _, err := wire.ParseRewriteQuery(r.URL.Query()); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	raw, ok := wire.ReadBody(w, r, g.cfg.MaxRequestBytes)
	if !ok {
		return
	}
	owners := g.ring.Owners(store.Hash(raw), g.replicas)
	// No routed-by marker: the target is an owner under the shared ring
	// config, and if views skew it may re-route exactly once itself.
	if g.tryOwners(owners, func(o string) error { return g.forwardRewrite(w, r, o, raw, "") }) {
		return
	}
	http.Error(w, "cluster: no owning peer reachable", http.StatusBadGateway)
}

// handleBatchSubmit routes a whole manifest to one node, chosen by the
// manifest body's hash — deterministic for a re-POSTed manifest, and
// spread across the fleet for distinct ones. The accepting node owns
// the job; its own item executor then routes each binary to the peer
// owning that binary's hash. The 202 body is captured (not streamed)
// so the gateway can learn the job ID → owner association.
func (g *Gateway) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := wire.ReadBody(w, r, g.cfg.MaxRequestBytes)
	if !ok {
		return
	}
	owners := g.ring.Owners(store.Hash(body), g.replicas)
	if !g.tryOwners(owners, func(o string) error { return g.submitBatch(r.Context(), w, o, body) }) {
		http.Error(w, "cluster: no peer accepted the batch", http.StatusBadGateway)
	}
}

// submitBatch posts the manifest to one peer and, once the peer has
// answered, relays its reply and learns the job's owner. An error means
// nothing was written to w.
func (g *Gateway) submitBatch(ctx context.Context, w http.ResponseWriter, peer string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimSuffix(peer, "/")+"/batch", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.hc.Do(req)
	if err != nil {
		return err
	}
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusAccepted {
		var acc wire.BatchAccepted
		if json.Unmarshal(respBody, &acc) == nil && acc.ID != "" {
			g.learnJob(acc.ID, peer)
		}
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(respBody)
	return nil
}

// handleBatchFollow proxies the job-scoped GETs — /batch/{id},
// /batch/{id}/events, /batch/{id}/output/{i} — to the node that owns
// the job. A known ID goes straight to its recorded owner; an unknown
// one (gateway restarted, table overflowed) probes the peers and
// relays the first non-404 answer, re-learning the association.
func (g *Gateway) handleBatchFollow(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/batch/")
	if i := strings.IndexByte(id, '/'); i >= 0 {
		id = id[:i]
	}
	if id == "" {
		http.Error(w, "batch: no job id", http.StatusBadRequest)
		return
	}
	if owner, ok := g.lookupJob(id); ok {
		if g.proxyBatchGet(w, r, owner) != errNotFound {
			return
		}
		g.forgetJob(id) // the owner no longer knows the job; fall through to probing
	}
	for _, o := range g.ring.Peers() {
		if !g.health.Healthy(o) {
			continue
		}
		switch g.proxyBatchGet(w, r, o) {
		case nil:
			g.learnJob(id, o)
			return
		case errNotFound:
			continue
		default:
			return // answered with a non-404 error; relayed, decision final
		}
	}
	http.Error(w, "batch: no such job on any peer", http.StatusNotFound)
}

// errNotFound marks a peer that answered 404 for a job probe.
var errNotFound = fmt.Errorf("cluster: peer has no such job")

// proxyBatchGet relays one job-scoped GET to target, flushing after
// every chunk so SSE events cross the gateway as they happen rather
// than when some buffer fills. Returns errNotFound on a 404 (the
// caller keeps probing), nil or another error once a response has been
// relayed.
func (g *Gateway) proxyBatchGet(w http.ResponseWriter, r *http.Request, target string) error {
	u := strings.TrimSuffix(target, "/") + r.URL.RequestURI()
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		req.Header.Set("Last-Event-ID", v)
	}
	resp, err := g.hc.Do(req)
	if err != nil {
		if service.Transient(err) {
			g.health.MarkDown(target)
		}
		return errNotFound // treat a dead peer like a miss: keep probing
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return errNotFound
	}
	g.health.MarkUp(target)
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				g.relayTruncated.Inc()
				return nil
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			g.relayTruncated.Inc()
			return nil
		}
	}
}

func (g *Gateway) learnJob(id, owner string) {
	g.jobMu.Lock()
	if len(g.jobOwner) >= maxJobOwners {
		g.jobOwner = map[string]string{} // soft state; probing rebuilds it
	}
	g.jobOwner[id] = owner
	g.jobMu.Unlock()
}

func (g *Gateway) lookupJob(id string) (string, bool) {
	g.jobMu.Lock()
	defer g.jobMu.Unlock()
	o, ok := g.jobOwner[id]
	return o, ok
}

func (g *Gateway) forgetJob(id string) {
	g.jobMu.Lock()
	delete(g.jobOwner, id)
	g.jobMu.Unlock()
}
