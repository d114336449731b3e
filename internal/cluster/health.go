package cluster

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"time"

	"icfgpatch/internal/service"
)

// DefaultDownTTL is how long a passively marked-down peer stays skipped
// before routing gives it another chance. Short on purpose: a wrong
// mark-down costs one failed forward at worst, while a long TTL keeps
// load off a recovered node.
const DefaultDownTTL = 5 * time.Second

// Health tracks which peers are believed reachable. Marks come from two
// sources: passively, from transient forward/fetch failures (the
// cheapest possible health check — real traffic), and actively, from
// Probe sweeps of /healthz. Mark-downs expire after a TTL so a peer
// that comes back is rediscovered without any coordination.
type Health struct {
	mu   sync.Mutex
	down map[string]time.Time
}

// NewHealth creates a tracker whose mark-downs last DefaultDownTTL.
func NewHealth() *Health {
	return &Health{down: make(map[string]time.Time)}
}

// MarkDown records a failed interaction with peer.
func (h *Health) MarkDown(peer string) {
	h.mu.Lock()
	h.down[peer] = time.Now()
	h.mu.Unlock()
}

// MarkUp clears peer's down mark (a successful interaction).
func (h *Health) MarkUp(peer string) {
	h.mu.Lock()
	delete(h.down, peer)
	h.mu.Unlock()
}

// Healthy reports whether peer should be routed to. An expired mark is
// cleared: the peer gets one real request as its probe.
func (h *Health) Healthy(peer string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	at, ok := h.down[peer]
	if !ok {
		return true
	}
	if time.Since(at) > DefaultDownTTL {
		delete(h.down, peer)
		return true
	}
	return false
}

// CountHealthy returns how many of peers are currently routable — the
// icfg_cluster_peers_healthy gauge.
func (h *Health) CountHealthy(peers []string) int {
	n := 0
	for _, p := range peers {
		if h.Healthy(p) {
			n++
		}
	}
	return n
}

// Probe actively sweeps every peer's /healthz (self excluded — a node
// is axiomatically reachable from itself) and updates the marks. Each
// probe gets its own short deadline so one hung peer cannot stall the
// sweep budget of the rest.
func (h *Health) Probe(ctx context.Context, hc *http.Client, peers []string, self string) {
	if hc == nil {
		hc = http.DefaultClient
	}
	for _, p := range peers {
		if p == self {
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, time.Second)
		req, err := http.NewRequestWithContext(pctx, http.MethodGet, strings.TrimSuffix(p, "/")+"/healthz", nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := hc.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		cancel()
		switch {
		case err == nil && resp.StatusCode == http.StatusOK:
			h.MarkUp(p)
		case err != nil && !service.Transient(err) && pctx.Err() == nil:
			// Unclassifiable failure: leave the marks alone rather than
			// flap on e.g. a local DNS hiccup.
		default:
			h.MarkDown(p)
		}
	}
}

// ProbeLoop runs Probe every interval until ctx is done.
func (h *Health) ProbeLoop(ctx context.Context, hc *http.Client, peers []string, self string, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			h.Probe(ctx, hc, peers, self)
		}
	}
}
