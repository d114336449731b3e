package cluster

// Wire-level option contract: every door — the plain serve door, a
// cluster node, the gateway front door, and the peer-units endpoint —
// must reject an unknown, repeated or malformed option with 400, and
// no-evidence=1 must change rewrite semantics end to end over HTTP: a
// CFI binary that func-ptr mode accepts under landing-pad evidence must
// be refused when the client asks for the conservative path.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/service"
	"icfgpatch/internal/workload"
)

// postRewrite posts raw to base/rewrite with a hand-built query string,
// returning the status code and body text.
func postRewrite(t *testing.T, base, query string, raw []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(strings.TrimSuffix(base, "/")+"/rewrite?"+query,
		"application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", query, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return resp.StatusCode, string(body)
}

func TestUnknownOptionsRejectedAtEveryDoor(t *testing.T) {
	tc := NewTestCluster(t, TestClusterConfig{Nodes: 2, Replicas: 2})
	srv := service.New(service.Config{})
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	plain := httptest.NewServer(srv.Handler())
	t.Cleanup(plain.Close)

	raw := clusterBinary(t, arch.X64, 33)
	doors := []struct{ name, base string }{
		{"serve", plain.URL},
		{"node", tc.URLs[0]},
		{"gateway", tc.GatewayURL()},
	}
	// Each query must die with a 400 whose body names the offending key.
	refused := []struct{ query, key string }{
		{"mode=jt&verfy=1", "verfy"},       // misspelt option
		{"mode=jt&features=1", "features"}, // the retired feature bitfield
		{"mode=jt&verify=yes", "verify"},   // malformed value
		{"mode=jt&mode=dir", "mode"},       // repeated key
	}
	for _, d := range doors {
		for _, c := range refused {
			status, body := postRewrite(t, d.base, c.query, raw)
			if status != http.StatusBadRequest {
				t.Fatalf("%s door: %s got %d (%s), want 400", d.name, c.query, status, strings.TrimSpace(body))
			}
			if !strings.Contains(body, fmt.Sprintf("%q", c.key)) {
				t.Fatalf("%s door: %s: 400 body does not name %q: %q", d.name, c.query, c.key, body)
			}
		}
		// The known option passes and the rewrite is served.
		status, body := postRewrite(t, d.base, "mode=jt&no-evidence=1", raw)
		if status != http.StatusOK {
			t.Fatalf("%s door: no-evidence=1 got %d (%s), want 200", d.name, status, strings.TrimSpace(body))
		}
	}
}

// TestNoEvidenceFeatureEndToEnd drives the evidence axis over HTTP: the
// Go-like CFI function-table binary rewrites soundly in func-ptr mode by
// default (trusted landing pads), and the same request with the
// no-evidence feature bit takes the conservative path and is refused —
// proving the bit reaches core.Analyze and forks the cache identity
// rather than being dropped at the door.
func TestNoEvidenceFeatureEndToEnd(t *testing.T) {
	tc := NewTestCluster(t, TestClusterConfig{Nodes: 2, Replicas: 2})
	prog, err := workload.GoTableCFI(arch.X64)
	if err != nil {
		t.Fatal(err)
	}
	raw := prog.Binary.Marshal()
	opts := clusterOpts(core.ModeFuncPtr)
	for _, cl := range []*service.Client{tc.NodeClient(0), tc.GatewayClient()} {
		_, reply, err := cl.Rewrite(context.Background(), raw, opts)
		if err != nil {
			t.Fatalf("evidence-enabled rewrite: %v", err)
		}
		if !reply.Stats.EvidenceTrusted || reply.Stats.EvidenceSkips == 0 {
			t.Fatalf("evidence-enabled rewrite did not use landing pads: %+v", reply.Stats)
		}
		noEv := opts
		noEv.NoEvidence = true
		if _, _, err := cl.Rewrite(context.Background(), raw, noEv); err == nil ||
			!strings.Contains(err.Error(), "imprecise") {
			t.Fatalf("no-evidence rewrite: got %v, want the conservative imprecise-func-ptr refusal", err)
		}
	}
}
