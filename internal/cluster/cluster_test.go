package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/core"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/store"
	"icfgpatch/internal/workload"
)

var clusterArches = []arch.Arch{arch.X64, arch.PPC, arch.A64}
var clusterModes = []core.Mode{core.ModeDir, core.ModeJT, core.ModeFuncPtr}

func clusterProfile(seed int64) workload.Profile {
	return workload.Profile{
		Name: "cluster", Seed: seed, Lang: "c++",
		Funcs: 14, SwitchFrac: 0.35, SpillFrac: 0.2,
		TinyFrac: 0.1, Exceptions: true, StackCalls: true, Iters: 4,
	}
}

func clusterBinary(t *testing.T, a arch.Arch, seed int64) []byte {
	t.Helper()
	p, err := workload.Generate(a, false, clusterProfile(seed))
	if err != nil {
		t.Fatal(err)
	}
	return p.Binary.Marshal()
}

func clusterOpts(mode core.Mode) core.Options {
	return core.Options{Mode: mode, Request: instrument.Request{
		Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty,
	}}
}

// localWant computes the single-process reference bytes for raw.
func localWant(t *testing.T, raw []byte, mode core.Mode) []byte {
	t.Helper()
	img, err := bin.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Rewrite(img, clusterOpts(mode))
	if err != nil {
		t.Fatal(err)
	}
	return res.Binary.Marshal()
}

func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(strings.TrimSuffix(base, "/") + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestClusterByteEquivalence is the cluster's ground truth: the same
// request, served by every node and by the gateway, across all three
// arches and all three modes, must emit bytes identical to a
// single-process core rewrite. With replicas == N every node is an
// owner and serves locally, so each node's full local pipeline is
// exercised.
func TestClusterByteEquivalence(t *testing.T) {
	tc := NewTestCluster(t, TestClusterConfig{Nodes: 3, Replicas: 3})
	for _, a := range clusterArches {
		raw := clusterBinary(t, a, 21)
		for _, mode := range clusterModes {
			t.Run(fmt.Sprintf("%s/%s", a, mode), func(t *testing.T) {
				want := localWant(t, raw, mode)
				for i := range tc.Nodes {
					got, _, err := tc.NodeClient(i).Rewrite(context.Background(), raw, clusterOpts(mode))
					if err != nil {
						t.Fatalf("node %d: %v", i, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("node %d diverged from local rewrite (%d vs %d bytes)", i, len(got), len(want))
					}
				}
				got, _, err := tc.GatewayClient().Rewrite(context.Background(), raw, clusterOpts(mode))
				if err != nil {
					t.Fatalf("gateway: %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("gateway diverged from local rewrite")
				}
			})
		}
	}
}

// TestClusterFailover kills the owning peer mid-workload and requires
// the cluster to keep serving byte-identical output across every arch
// and mode: the gateway and the surviving nodes must fail over to the
// replica (or serve locally as a last resort) without any client-visible
// difference beyond latency.
func TestClusterFailover(t *testing.T) {
	tc := NewTestCluster(t, TestClusterConfig{Nodes: 3, Replicas: 2})
	type combo struct {
		raw  []byte
		mode core.Mode
		want []byte
	}
	var combos []combo
	for _, a := range clusterArches {
		raw := clusterBinary(t, a, 22)
		for _, mode := range clusterModes {
			combos = append(combos, combo{raw: raw, mode: mode, want: localWant(t, raw, mode)})
		}
	}

	// Phase 1: full cluster. Everything through the gateway.
	gw := tc.GatewayClient()
	for ci, c := range combos {
		got, _, err := gw.Rewrite(context.Background(), c.raw, clusterOpts(c.mode))
		if err != nil {
			t.Fatalf("pre-kill combo %d: %v", ci, err)
		}
		if !bytes.Equal(got, c.want) {
			t.Fatalf("pre-kill combo %d diverged", ci)
		}
	}

	// Kill the node that owns the first binary, mid-workload.
	victimURL := tc.Nodes[0].Owners(store.Hash(combos[0].raw))[0]
	victim := -1
	for i, u := range tc.URLs {
		if u == victimURL {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatalf("owner %s not in cluster", victimURL)
	}
	tc.Kill(victim)

	// Phase 2: same workload again — through the gateway and directly
	// against every surviving node.
	for ci, c := range combos {
		got, _, err := gw.Rewrite(context.Background(), c.raw, clusterOpts(c.mode))
		if err != nil {
			t.Fatalf("post-kill combo %d via gateway: %v", ci, err)
		}
		if !bytes.Equal(got, c.want) {
			t.Fatalf("post-kill combo %d via gateway diverged", ci)
		}
		for i := range tc.Nodes {
			if i == victim {
				continue
			}
			got, _, err := tc.NodeClient(i).Rewrite(context.Background(), c.raw, clusterOpts(c.mode))
			if err != nil {
				t.Fatalf("post-kill combo %d via node %d: %v", ci, i, err)
			}
			if !bytes.Equal(got, c.want) {
				t.Fatalf("post-kill combo %d via node %d diverged", ci, i)
			}
		}
	}
}

// TestClusterMetricsScrape checks the cluster series on the wire: a
// non-owner node's forward increments icfg_cluster_forwards_total, the
// healthy gauge counts the full membership, and the gateway exposes its
// own forward counter.
func TestClusterMetricsScrape(t *testing.T) {
	tc := NewTestCluster(t, TestClusterConfig{Nodes: 3, Replicas: 1})
	raw := clusterBinary(t, arch.PPC, 25)
	opts := clusterOpts(core.ModeDir)
	want := localWant(t, raw, core.ModeDir)

	owner := tc.Nodes[0].Owners(store.Hash(raw))[0]
	nonOwner := -1
	for i, u := range tc.URLs {
		if u != owner {
			nonOwner = i
			break
		}
	}
	got, _, err := tc.NodeClient(nonOwner).Rewrite(context.Background(), raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("forwarded rewrite diverged")
	}

	metrics := scrape(t, tc.URLs[nonOwner])
	for _, line := range []string{
		"icfg_cluster_forwards_total 1",
		"icfg_cluster_peers_healthy 3",
	} {
		if !strings.Contains(metrics, line) {
			t.Errorf("node metrics missing %q", line)
		}
	}

	if _, _, err := tc.GatewayClient().Rewrite(context.Background(), raw, opts); err != nil {
		t.Fatal(err)
	}
	gm := scrape(t, tc.GatewayURL())
	for _, line := range []string{
		"icfg_cluster_forwards_total 1",
		"icfg_cluster_peers_healthy 3",
	} {
		if !strings.Contains(gm, line) {
			t.Errorf("gateway metrics missing %q", line)
		}
	}
}

// TestClusterProfilePassThrough: a profile-framed rewrite through the
// cluster — including forwarded requests, since replicas=1 means most
// nodes do not own the body's content hash — must produce bytes
// identical to the local guided rewrite. The cluster treats the framed
// body as opaque: the profile participates in routing via the body
// hash and is split only by the serving node's door.
func TestClusterProfilePassThrough(t *testing.T) {
	tc := NewTestCluster(t, TestClusterConfig{Nodes: 3, Replicas: 1})
	raw := clusterBinary(t, arch.X64, 33)
	img, err := bin.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.Analyze(img, core.AnalysisConfig{Mode: core.ModeJT})
	if err != nil {
		t.Fatal(err)
	}
	heat := make(map[uint64]uint64)
	for i, f := range an.Graph.Funcs {
		heat[f.Entry] = uint64(1 + 400*(i%3/2))
	}
	prof := an.ProfileFromHeat("cluster", heat)
	opts := core.Options{Mode: core.ModeJT, Request: instrument.Request{
		Where: instrument.BlockEntry, Payload: instrument.PayloadCounter,
	}, Profile: prof}
	want, err := an.Patch(opts)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.VariantFuncs == 0 {
		t.Fatal("cluster fixture profile planned no variants")
	}
	wantBytes := want.Binary.Marshal()
	for i := range tc.Nodes {
		got, reply, err := tc.NodeClient(i).Rewrite(context.Background(), raw, opts)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if !bytes.Equal(got, wantBytes) {
			t.Fatalf("node %d guided rewrite diverged from local", i)
		}
		if reply.Stats.VariantFuncs == 0 {
			t.Fatalf("node %d dropped the profile in transit", i)
		}
	}
	got, _, err := tc.GatewayClient().Rewrite(context.Background(), raw, opts)
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	if !bytes.Equal(got, wantBytes) {
		t.Fatal("gateway guided rewrite diverged from local")
	}
}
