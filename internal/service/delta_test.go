package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/workload"
)

// TestDeltaMetricsScrape drives the delta path end to end over HTTP:
// version 1 of a binary is served cold, then a K-function mutation of
// it misses the analysis store but reassembles from the shared unit
// store. The scrape must show the delta cache-path label, the
// funcs-reused/recomputed counters matching the replies, and the
// function-unit store's own gauge series.
func TestDeltaMetricsScrape(t *testing.T) {
	p, err := workload.Generate(arch.X64, false, testProfile())
	if err != nil {
		t.Fatal(err)
	}
	v1 := p.Binary
	v2, _, err := workload.MutateVersion(v1, 2, 13)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL}

	opts := core.Options{Mode: core.ModeJT, Request: blockEmpty()}
	_, reply1, err := cl.Rewrite(context.Background(), v1.Marshal(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if reply1.Metrics.FuncsReused != 0 || reply1.Metrics.FuncsRecomputed == 0 {
		t.Fatalf("cold reply delta split = %d reused / %d recomputed", reply1.Metrics.FuncsReused, reply1.Metrics.FuncsRecomputed)
	}
	_, reply2, err := cl.Rewrite(context.Background(), v2.Marshal(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if reply2.Metrics.FuncsReused == 0 {
		t.Fatalf("v2 reply reused nothing (recomputed %d): delta path never engaged", reply2.Metrics.FuncsRecomputed)
	}
	if reply2.Metrics.FuncsRecomputed >= reply1.Metrics.FuncsRecomputed {
		t.Fatalf("v2 recomputed %d of %d funcs: not a delta", reply2.Metrics.FuncsRecomputed, reply1.Metrics.FuncsRecomputed)
	}

	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	for _, want := range []string{
		`icfg_cache_path_total{path="cold"} 1`,
		`icfg_cache_path_total{path="delta"} 1`,
		fmt.Sprintf("icfg_analysis_funcs_reused_total %d", reply1.Metrics.FuncsReused+reply2.Metrics.FuncsReused),
		fmt.Sprintf("icfg_analysis_funcs_recomputed_total %d", reply1.Metrics.FuncsRecomputed+reply2.Metrics.FuncsRecomputed),
		fmt.Sprintf(`icfg_store_hits_total{store="funcs"} %d`, reply2.Metrics.FuncsReused),
		`icfg_store_disk_hits_total{store="funcs"} 0`,
		`icfg_store_misses_total{store="analysis"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(text, `icfg_store_entries{store="funcs"}`) {
		t.Errorf("/metrics missing the funcs store entries gauge:\n%s", text)
	}

	// The drain report carries the unit store's split too.
	if rep := s.Stats().String(); !strings.Contains(rep, "func-unit store") {
		t.Errorf("drain report missing the func-unit store line:\n%s", rep)
	}
}
