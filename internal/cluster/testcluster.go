package cluster

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"icfgpatch/internal/service"
	"icfgpatch/internal/service/batch"
)

// TestClusterConfig sizes an in-process cluster.
type TestClusterConfig struct {
	// Nodes is the node count (default 3).
	Nodes int
	// Replicas is the replication factor (default DefaultReplicas).
	Replicas int
	// Service is the per-node service config (each node gets its own
	// Server built from a copy).
	Service service.Config
	// WrapNode, when set, wraps node i's handler — fault-injection
	// middleware for tests (delays, drops).
	WrapNode func(i int, h http.Handler) http.Handler
	// Batch installs a batch.Manager on every node (cluster-routing
	// executor, /batch HTTP surface) and routes /batch through the
	// gateway. The cap for the gateway's /batch door follows
	// Service.MaxRequestBytes.
	Batch bool
}

// TestCluster is an in-process multi-node cluster: N real
// service.Servers, each wrapped in a cluster Node behind its own
// httptest listener, plus a Gateway fronting them all. Everything runs
// over real HTTP on the loopback interface, so routing, forwarding,
// and failover are exercised end to end — only the
// machines are missing.
type TestCluster struct {
	Nodes   []*Node
	Servers []*service.Server
	URLs    []string
	Gateway *Gateway
	// Managers holds each node's batch manager (cfg.Batch only).
	Managers []*batch.Manager

	listeners []*httptest.Server
	gwSrv     *httptest.Server
	killed    []bool
}

// NewTestCluster builds and starts the cluster. The listeners come up
// before the nodes exist (each node needs the full URL set, including
// its own), so every listener starts on a placeholder that 503s until
// its node's handler is swapped in.
func NewTestCluster(t testing.TB, cfg TestClusterConfig) *TestCluster {
	t.Helper()
	n := cfg.Nodes
	if n <= 0 {
		n = 3
	}
	tc := &TestCluster{killed: make([]bool, n)}
	handlers := make([]atomic.Pointer[http.Handler], n)
	for i := 0; i < n; i++ {
		idx := i
		ls := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h := handlers[idx].Load()
			if h == nil {
				http.Error(w, "node starting", http.StatusServiceUnavailable)
				return
			}
			(*h).ServeHTTP(w, r)
		}))
		tc.listeners = append(tc.listeners, ls)
		tc.URLs = append(tc.URLs, ls.URL)
	}
	for i := 0; i < n; i++ {
		srv := service.New(cfg.Service)
		node, err := NewNode(srv, Config{Self: tc.URLs[i], Peers: tc.URLs, Replicas: cfg.Replicas})
		if err != nil {
			t.Fatalf("cluster node %d: %v", i, err)
		}
		tc.Servers = append(tc.Servers, srv)
		tc.Nodes = append(tc.Nodes, node)
		h := node.Handler()
		if cfg.Batch {
			mgr, err := batch.New(srv, batch.Config{})
			if err != nil {
				t.Fatalf("batch manager %d: %v", i, err)
			}
			tc.Managers = append(tc.Managers, mgr)
			node.InstallBatch(mgr)
			h = node.HandlerWith(mgr.Handler(srv.Handler()))
			if cfg.WrapNode != nil {
				h = cfg.WrapNode(i, h)
			}
			handlers[i].Store(&h)
			continue
		}
		if cfg.WrapNode != nil {
			h = cfg.WrapNode(i, h)
		}
		handlers[i].Store(&h)
	}
	gw, err := NewGateway(GatewayConfig{
		Peers:           tc.URLs,
		Replicas:        cfg.Replicas,
		MaxRequestBytes: cfg.Service.MaxRequestBytes,
	})
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	tc.Gateway = gw
	tc.gwSrv = httptest.NewServer(gw.Handler())
	t.Cleanup(tc.Close)
	return tc
}

// GatewayURL is the front door's base URL.
func (tc *TestCluster) GatewayURL() string { return tc.gwSrv.URL }

// NodeClient returns a service client talking directly to node i.
func (tc *TestCluster) NodeClient(i int) *service.Client {
	return &service.Client{BaseURL: tc.URLs[i]}
}

// GatewayClient returns a service client talking through the gateway.
func (tc *TestCluster) GatewayClient() *service.Client {
	return &service.Client{BaseURL: tc.gwSrv.URL}
}

// Kill abruptly takes node i off the network: in-flight connections are
// severed and new ones refused, exactly like a crashed process. The
// node's Server is left un-shutdown on purpose — a crash does not
// drain.
func (tc *TestCluster) Kill(i int) {
	if tc.killed[i] {
		return
	}
	tc.killed[i] = true
	tc.listeners[i].CloseClientConnections()
	tc.listeners[i].Close()
}

// Close tears the cluster down.
func (tc *TestCluster) Close() {
	tc.gwSrv.Close()
	for i, ls := range tc.listeners {
		if !tc.killed[i] {
			ls.Close()
		}
	}
}
