// Command icfg-serve runs the rewriter as a daemon. Clients POST
// serialised binaries to /rewrite (see internal/service for the wire
// format, or use icfg-rewrite -remote) and get back rewritten images;
// analyses are cached by content hash so repeat rewrites of the same
// binary skip CFG construction, jump-table analysis, and function-
// pointer analysis entirely.
//
// Usage:
//
//	icfg-serve [-addr :8844] [-workers N] [-queue N] [-batch-queue N]
//	           [-analyses N] [-results N] [-funcs N] [-disk dir]
//	           [-batch-dir dir] [-max-body N] [-timeout dur]
//	           [-self URL -peers URL,URL,...] [-replicas N] [-probe dur]
//
// /batch accepts a JSON manifest of binaries and rewrite options,
// returns a job ID, and streams per-binary progress over SSE at
// /batch/{id}/events (poll /batch/{id} as a fallback; fetch outputs
// from /batch/{id}/output/{i}). Batch items run on a lower-priority
// scheduler lane — interactive /rewrite traffic always dispatches
// first — and identical binaries across jobs share one analysis. With
// -batch-dir, job state persists across restarts: a daemon killed
// mid-batch finishes the job when it comes back.
//
// Besides /rewrite, /stats, and /healthz, the server exposes /metrics
// (Prometheus text: request outcomes, cache paths, per-stage latency
// histograms, queue and store gauges) and /debug/pprof for profiling a
// live daemon. Clients can add trace=1 to /rewrite for a span tree of
// their request.
//
// With -self and -peers the daemon joins a rewrite cluster
// (internal/cluster): requests route by binary content hash over a
// consistent-hash ring and non-owned requests forward to a healthy
// owner; a node that misses its analysis cache analyses locally. Front
// the peer set with icfg-gateway for a single client-facing address.
//
// SIGINT/SIGTERM drain gracefully: in-flight rewrites complete, queued
// requests are rejected with 503, and the final cache statistics are
// printed before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"icfgpatch/internal/cluster"
	"icfgpatch/internal/service"
	"icfgpatch/internal/service/batch"
)

func main() {
	addr := flag.String("addr", ":8844", "listen address")
	workers := flag.Int("workers", 0, "rewrite worker count (default: GOMAXPROCS)")
	queue := flag.Int("queue", 0, "request queue depth (default: 64)")
	batchQueue := flag.Int("batch-queue", 0, "batch-lane queue depth (default: 256)")
	batchDir := flag.String("batch-dir", "", "persist batch job state here (enables resume after restart)")
	maxBody := flag.Int64("max-body", 0, "request body cap in bytes for /rewrite and /batch (default 256MiB, -1: unbounded)")
	analyses := flag.Int("analyses", 0, "analysis cache entries (default: 32)")
	results := flag.Int("results", 0, "result cache entries (0 disables the result cache)")
	funcs := flag.Int("funcs", 0, "function-unit store entries for delta analysis (default: 4096, -1 disables)")
	disk := flag.String("disk", "", "persist the result cache to this directory")
	timeout := flag.Duration("timeout", 0, "per-request processing timeout (0: none)")
	self := flag.String("self", "", "cluster: this node's base URL as listed in -peers")
	peers := flag.String("peers", "", "cluster: comma-separated base URLs of all nodes, self included")
	replicas := flag.Int("replicas", 0, "cluster: replication factor (default 2)")
	probe := flag.Duration("probe", 0, "cluster: active /healthz probe interval (0: passive health only)")
	flag.Parse()

	if *disk != "" && *results == 0 {
		fatal(errors.New("-disk requires -results > 0"))
	}
	if (*self == "") != (*peers == "") {
		fatal(errors.New("-self and -peers must be set together"))
	}

	s := service.New(service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		BatchQueueDepth: *batchQueue,
		MaxRequestBytes: *maxBody,
		AnalysisEntries: *analyses,
		ResultEntries:   *results,
		FuncEntries:     *funcs,
		Dir:             *disk,
		Timeout:         *timeout,
	})

	// The batch surface wraps the service handler; the cluster routes
	// wrap both. /batch jobs therefore always run on the node that
	// accepted them (the gateway picks that node by manifest hash), and
	// each item routes to its binary's hash owner via InstallBatch.
	mgr, err := batch.New(s, batch.Config{Dir: *batchDir})
	if err != nil {
		fatal(err)
	}
	handler := mgr.Handler(s.Handler())
	if *self != "" {
		node, err := cluster.NewNode(s, cluster.Config{
			Self:     *self,
			Peers:    strings.Split(*peers, ","),
			Replicas: *replicas,
		})
		if err != nil {
			fatal(err)
		}
		node.InstallBatch(mgr)
		handler = node.HandlerWith(handler)
		if *probe > 0 {
			probeCtx, stopProbes := context.WithCancel(context.Background())
			defer stopProbes()
			node.StartProbes(probeCtx, *probe)
		}
		fmt.Printf("icfg-serve: cluster member %s (%d peers)\n", *self, len(strings.Split(*peers, ",")))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Printf("icfg-serve: listening on %s\n", ln.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("icfg-serve: %s, draining\n", sig)
	case err := <-errc:
		fatal(err)
	}

	// Stop accepting, then drain the rewrite pool: in-flight requests
	// finish, queued ones get their clean rejection.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	// Park batch runners first (their in-flight items go back to pending
	// in the persisted record), then drain the rewrite pool.
	if err := mgr.Shutdown(ctx); err != nil {
		fatal(fmt.Errorf("batch drain: %w", err))
	}
	if err := s.Shutdown(ctx); err != nil {
		fatal(fmt.Errorf("drain: %w", err))
	}
	fmt.Println(s.Stats())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "icfg-serve:", err)
	os.Exit(1)
}
