package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	"icfgpatch/internal/obs"
	"icfgpatch/internal/service"
	"icfgpatch/internal/service/wire"
	"icfgpatch/internal/store"
)

// RoutedHeader marks a request that has already been routed once. A
// node receiving it serves locally unconditionally, so disagreeing ring
// views (mid-rollout config skew) degrade to one extra hop, never a
// forwarding loop.
const RoutedHeader = "X-Icfg-Routed"

// router is the routing core Node and Gateway share: ring + health +
// the forwarding loop.
type router struct {
	ring     *Ring
	health   *Health
	hc       *http.Client
	replicas int
	forwards *obs.Counter
	// relayTruncated counts relays whose body copy died mid-stream: the
	// peer answered, headers went out, and then the pipe broke — the
	// client got a truncated frame it will reject. Invisible before this
	// counter: forwardRewrite reports success (the routing decision WAS
	// final) and nothing recorded that the bytes never all arrived.
	relayTruncated *obs.Counter
}

// forwardRewrite proxies one already-read /rewrite to target. It
// returns an error only if the target never answered (hc.Do failed);
// once a response arrives — any status — it is relayed and the routing
// decision is final.
func (rt *router) forwardRewrite(w http.ResponseWriter, r *http.Request, target string, raw []byte, routedBy string) error {
	u := strings.TrimSuffix(target, "/") + r.URL.RequestURI()
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, u, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	// Relay the caller's Content-Type (a /batch manifest is JSON, a
	// /rewrite body an octet stream) instead of assuming binary.
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	} else {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	if routedBy != "" {
		req.Header.Set(RoutedHeader, routedBy)
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		rt.relayTruncated.Inc()
	}
	return nil
}

// tryOwners walks the replica set until try succeeds on a peer:
// healthy owners first in replica order, then — because a health mark
// is a belief, not a fact — one second pass over the owners the first
// pass skipped. A transient failure marks the peer down; any failure
// moves on to the next owner. A success marks the peer up, counts a
// forward and ends the walk. Returns false if no owner succeeded.
func (rt *router) tryOwners(owners []string, try func(peer string) error) bool {
	attempt := func(o string) bool {
		if err := try(o); err != nil {
			if service.Transient(err) {
				rt.health.MarkDown(o)
			}
			return false
		}
		rt.health.MarkUp(o)
		rt.forwards.Inc()
		return true
	}
	tried := make(map[string]bool, len(owners))
	for _, o := range owners {
		if !rt.health.Healthy(o) {
			continue
		}
		tried[o] = true
		if attempt(o) {
			return true
		}
	}
	for _, o := range owners {
		if tried[o] {
			continue
		}
		if attempt(o) {
			return true
		}
	}
	return false
}

// Config configures a Node.
type Config struct {
	// Self is this node's base URL exactly as it appears in Peers.
	Self string
	// Peers is the full cluster membership, self included. Every member
	// must agree on this set for routing to agree.
	Peers []string
	// Replicas is the replication factor: how many distinct peers own
	// each content hash (default DefaultReplicas).
	Replicas int
	// HTTPClient overrides http.DefaultClient for forwards and probes.
	HTTPClient *http.Client
}

// Node wraps one service.Server with cluster routing: requests whose
// content hash this node owns (or that arrive pre-routed) are served
// locally; the rest forward to a healthy owner with failover. A node
// that misses its analysis store analyses locally: peers share no
// analysis state, only routing.
type Node struct {
	router
	cfg Config
	srv *service.Server
}

// NewNode builds the node around srv and registers the cluster metrics
// on srv's registry.
func NewNode(srv *service.Server, cfg Config) (*Node, error) {
	ring, err := NewRing(cfg.Peers, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	found := false
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q is not in the peer set", cfg.Self)
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = DefaultReplicas
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	n := &Node{
		router: router{ring: ring, health: NewHealth(), hc: hc, replicas: cfg.Replicas},
		cfg:    cfg,
		srv:    srv,
	}
	reg := srv.Registry()
	n.forwards = reg.Counter("icfg_cluster_forwards_total",
		"rewrite requests forwarded to an owning peer")
	n.relayTruncated = reg.Counter("icfg_cluster_relay_truncated_total",
		"forwarded responses whose relay to the client died mid-body")
	reg.GaugeFunc("icfg_cluster_peers_healthy", "cluster peers currently believed reachable", "", "",
		func() float64 { return float64(n.health.CountHealthy(n.ring.peers)) })
	return n, nil
}

// Self returns this node's peer URL.
func (n *Node) Self() string { return n.cfg.Self }

// Owners returns the replica set for a content hash, owner first.
func (n *Node) Owners(hash string) []string { return n.ring.Owners(hash, n.cfg.Replicas) }

// StartProbes runs active /healthz sweeps every interval until ctx
// ends, complementing the passive mark-downs from failed forwards.
func (n *Node) StartProbes(ctx context.Context, interval time.Duration) {
	go n.health.ProbeLoop(ctx, n.hc, n.ring.peers, n.cfg.Self, interval)
}

// Handler wraps the service's HTTP surface with the cluster endpoints:
// /rewrite gains routing and /cluster reports membership; everything
// else (/stats, /healthz, /metrics, pprof) passes through to the
// service handler.
func (n *Node) Handler() http.Handler {
	return n.HandlerWith(n.srv.Handler())
}

// HandlerWith is Handler over a caller-chosen base — the seam that lets
// the daemon stack the batch surface under the cluster routes (batch
// mux wraps service handler, node wraps that), so /batch jobs submitted
// at any node run there while /rewrite keeps cluster routing.
func (n *Node) HandlerWith(base http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/rewrite", n.handleRewrite)
	mux.HandleFunc("/cluster", n.handleInfo)
	mux.Handle("/", base)
	return mux
}

func (n *Node) handleRewrite(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// Same door cap as the plain service: the node must read the whole
	// body to route by content hash, which is exactly why an unbounded
	// read here was the cluster's OOM door.
	raw, ok := wire.ReadBody(w, r, n.srv.MaxRequestBytes())
	if !ok {
		return
	}
	// Pre-routed requests are served unconditionally (no loops); so are
	// requests this node owns.
	if r.Header.Get(RoutedHeader) != "" {
		n.srv.ServeRewrite(w, r, raw, "")
		return
	}
	// The routing hash is the service's content address too, so the
	// body is hashed once whichever path serves it.
	hash := store.Hash(raw)
	owners := n.ring.Owners(hash, n.cfg.Replicas)
	if slices.Contains(owners, n.cfg.Self) {
		n.srv.ServeRewrite(w, r, raw, hash)
		return
	}
	if n.tryOwners(owners, func(o string) error {
		return n.forwardRewrite(w, r, o, raw, n.cfg.Self)
	}) {
		return
	}
	// Every owner is unreachable: serve locally rather than fail. The
	// output is byte-identical anywhere — routing is a cache-locality
	// policy, and availability wins when the policy can't be satisfied.
	n.srv.ServeRewrite(w, r, raw, hash)
}

// Info is the /cluster endpoint's JSON body.
type Info struct {
	Self     string   `json:"self,omitempty"`
	Peers    []string `json:"peers"`
	Healthy  int      `json:"healthy"`
	Replicas int      `json:"replicas"`
}

func (n *Node) handleInfo(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(Info{
		Self:     n.cfg.Self,
		Peers:    n.ring.Peers(),
		Healthy:  n.health.CountHealthy(n.ring.peers),
		Replicas: n.cfg.Replicas,
	})
}
