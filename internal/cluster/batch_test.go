package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/service"
	"icfgpatch/internal/service/wire"
	"icfgpatch/internal/store"
)

// TestClusterBatchThroughGateway drives a fleet job through the front
// door: a 10-item manifest over 3 distinct binaries lands on one node
// (by manifest hash), each item routes to its binary's ring owner, the
// SSE progress feed proxies back through the gateway, and every output
// is byte-identical to a single-process rewrite. The cluster-wide
// analysis count must still be 3 — item routing keeps the dedupe that
// single-node batches get from the analysis store.
func TestClusterBatchThroughGateway(t *testing.T) {
	tc := NewTestCluster(t, TestClusterConfig{Batch: true})
	raws := [][]byte{
		clusterBinary(t, arch.X64, 61),
		clusterBinary(t, arch.X64, 62),
		clusterBinary(t, arch.X64, 63),
	}
	want := make([][]byte, len(raws))
	for i, raw := range raws {
		want[i] = localWant(t, raw, core.ModeJT)
	}
	man := wire.BatchManifest{}
	for i := 0; i < 10; i++ {
		man.Items = append(man.Items, wire.BatchItem{
			Name:   fmt.Sprintf("fleet-%d", i),
			Binary: raws[i%len(raws)],
		})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cl := tc.GatewayClient()
	acc, err := cl.BatchSubmit(ctx, man)
	if err != nil {
		t.Fatalf("submit through gateway: %v", err)
	}
	if acc.Items != 10 {
		t.Fatalf("accepted %d items, want 10", acc.Items)
	}

	// Follow the SSE feed through the gateway's streaming proxy to the
	// job's end; the event contract itself is covered in the batch
	// package — here the point is that the proxy relays it live.
	var last wire.BatchEvent
	itemsDone := 0
	if err := cl.BatchEvents(ctx, acc.ID, 0, func(ev wire.BatchEvent) bool {
		if ev.Type == wire.EventItemDone {
			itemsDone++
		}
		last = ev
		return true
	}); err != nil {
		t.Fatalf("event stream through gateway: %v", err)
	}
	if last.Type != wire.EventJobDone {
		t.Fatalf("stream ended on %s, want %s", last.Type, wire.EventJobDone)
	}
	if itemsDone != 10 {
		t.Errorf("%d item-done events, want 10", itemsDone)
	}

	st, err := cl.BatchStatus(ctx, acc.ID)
	if err != nil {
		t.Fatalf("status through gateway: %v", err)
	}
	if st.State != wire.BatchDone {
		t.Fatalf("job state = %s, want %s", st.State, wire.BatchDone)
	}
	for i := 0; i < 10; i++ {
		image, err := cl.BatchOutput(ctx, acc.ID, i)
		if err != nil {
			t.Fatalf("output %d through gateway: %v", i, err)
		}
		if !bytes.Equal(image, want[i%len(raws)]) {
			t.Errorf("item %d output differs from single-process rewrite", i)
		}
	}

	// Dedupe held across the cluster: 3 distinct binaries, each analyzed
	// exactly once on whichever node owns its hash.
	misses := uint64(0)
	for _, srv := range tc.Servers {
		misses += srv.Stats().Analyses.Misses
	}
	if misses != 3 {
		t.Errorf("cluster-wide analysis misses = %d, want 3", misses)
	}
}

// TestClusterBatchStageEvents pins the batch feed's stage-event rule on
// both executors: an item reports item-stage events exactly when its
// cache path is not result-cache — the rule /metrics' stage histogram
// follows. An item forwarded to its hash's owner carries the owner's
// stage laps home in its reply, and a result-cache replay reports none,
// wherever it ran.
func TestClusterBatchStageEvents(t *testing.T) {
	tc := NewTestCluster(t, TestClusterConfig{Batch: true, Service: service.Config{ResultEntries: 8}})
	self := tc.Nodes[0]
	owned := func(raw []byte) bool {
		for _, o := range self.Owners(store.Hash(raw)) {
			if o == self.Self() {
				return true
			}
		}
		return false
	}
	// One binary node 0 owns and one it must forward, each submitted
	// twice so the second copy can replay from its owner's result cache.
	var local, remote []byte
	for seed := int64(70); local == nil || remote == nil; seed++ {
		if seed == 100 {
			t.Fatal("no seed in 70..99 gives both a local and a forwarded binary")
		}
		raw := clusterBinary(t, arch.X64, seed)
		if owned(raw) && local == nil {
			local = raw
		} else if !owned(raw) && remote == nil {
			remote = raw
		}
	}
	man := wire.BatchManifest{Items: []wire.BatchItem{
		{Name: "remote-0", Binary: remote}, {Name: "remote-1", Binary: remote},
		{Name: "local-0", Binary: local}, {Name: "local-1", Binary: local},
	}}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cl := tc.NodeClient(0)
	acc, err := cl.BatchSubmit(ctx, man)
	if err != nil {
		t.Fatal(err)
	}
	stages := map[string]int{}
	paths := map[string]string{}
	if err := cl.BatchEvents(ctx, acc.ID, 0, func(ev wire.BatchEvent) bool {
		switch ev.Type {
		case wire.EventItemStage:
			stages[ev.Name]++
		case wire.EventItemDone:
			paths[ev.Name] = ev.Path
		case wire.EventItemFailed:
			t.Errorf("%s failed: %s", ev.Name, ev.Err)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	built := map[string]bool{}
	for _, it := range man.Items {
		path := paths[it.Name]
		switch {
		case path == "":
			t.Errorf("%s: no item-done event", it.Name)
		case path == service.PathResultCache && stages[it.Name] != 0:
			t.Errorf("%s: result-cache replay reported %d item-stage events, want none", it.Name, stages[it.Name])
		case path != service.PathResultCache && stages[it.Name] == 0:
			t.Errorf("%s: %s rewrite reported no item-stage events", it.Name, path)
		case path != service.PathResultCache:
			built[strings.TrimRight(it.Name, "-01")] = true
		}
	}
	if !built["remote"] || !built["local"] {
		t.Errorf("built items %v: want one build each of the forwarded and the local binary (paths %v)", built, paths)
	}
}

// TestClusterBatchBodyCap verifies the request-body cap on every
// cluster door: node /rewrite and /batch, gateway /rewrite and /batch
// all draw 413 for a body one byte over the cap.
func TestClusterBatchBodyCap(t *testing.T) {
	const cap = 4096
	tc := NewTestCluster(t, TestClusterConfig{
		Batch:   true,
		Service: service.Config{MaxRequestBytes: cap},
	})
	post := func(base, path string) int {
		resp, err := http.Post(base+path, "application/octet-stream",
			strings.NewReader(strings.Repeat("x", cap+1)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, door := range []struct {
		name string
		base string
		path string
	}{
		{"node /rewrite", tc.URLs[0], "/rewrite?mode=jt"},
		{"node /batch", tc.URLs[0], "/batch"},
		{"gateway /rewrite", tc.GatewayURL(), "/rewrite?mode=jt"},
		{"gateway /batch", tc.GatewayURL(), "/batch"},
	} {
		if code := post(door.base, door.path); code != http.StatusRequestEntityTooLarge {
			t.Errorf("over-cap POST to %s: %d, want 413", door.name, code)
		}
	}
}
