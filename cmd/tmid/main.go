// Command tmid runs the false sharing detection-and-repair-advice service:
// a long-running HTTP server that ingests streams of resolved HITM samples
// (an NDJSON hello, then binary frames) from many tenants, shards each
// tenant onto a detector worker, and streams back per-tick NDJSON repair
// advice plus adaptive sampling-period feedback (see internal/service and
// DESIGN §12, §15).
//
// Usage:
//
//	tmid                                  # listen on :7412
//	tmid -addr 127.0.0.1:0 -addr-file a  # ephemeral port, written to file a
//	tmid -shards 8 -queue 512 -ttl 30s   # scale and lifecycle knobs
//
// Endpoints: POST /v1/stream, GET /healthz, GET /metrics (Prometheus text).
// SIGINT/SIGTERM drain gracefully: no new streams, queued work finishes.
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
	"syscall"
	"time"

	"repro/internal/detect"
	"repro/internal/service"
	"repro/internal/toolio"
)

func main() {
	var (
		addr       = flag.String("addr", ":7412", "listen address (port 0 picks an ephemeral port)")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file once listening (for scripted startup)")
		shards     = flag.Int("shards", 4, "detector shard workers (tenants are hash-routed)")
		queue      = flag.Int("queue", 256, "per-shard bounded ingest queue depth")
		ttl        = flag.Duration("ttl", 60*time.Second, "idle tenant session eviction TTL")
		wait       = flag.Duration("enqueue-wait", 5*time.Second, "backpressure wait before a saturated shard drops a batch")
		threshold  = flag.Float64("threshold", detect.DefaultConfig().ThresholdPerSec, "est. HITM events/s per line above which repair is advised")
		minRecords = flag.Int("min-records", detect.DefaultConfig().MinRecords, "min raw records on a line before judging it")
		drainWait  = flag.Duration("drain-wait", 10*time.Second, "graceful shutdown budget on SIGTERM")
		maxFrame   = flag.Int("max-frame", toolio.MaxWireLine, "max accepted wire frame/line payload bytes")
		recommend  = flag.String("recommend", "", "repair-backend recommendation policy stamped into advice: none, auto, or a fixed backend (t2p, pad, map, tmebox)")
		nodeID     = flag.String("node-id", "", "node name reported in /healthz JSON (cluster membership metadata; default tmid)")
		migratable = flag.Bool("migratable", false, "capture per-session sample logs so sessions can be exported and live-migrated (/v1/export, /v1/migrate)")
	)
	flag.Parse()

	if !detect.ValidRecommendPolicy(*recommend) {
		fmt.Fprintf(os.Stderr, "tmid: unknown -recommend policy %q (want none, auto, t2p, pad, map, or tmebox)\n", *recommend)
		os.Exit(2)
	}

	srv := service.New(service.Config{
		Shards:           *shards,
		QueueDepth:       *queue,
		EnqueueWait:      *wait,
		SessionTTL:       *ttl,
		MaxFrameBytes:    *maxFrame,
		Detect:           detect.Config{ThresholdPerSec: *threshold, MinRecords: *minRecords},
		RecommendBackend: *recommend,
		NodeID:           *nodeID,
		Migratable:       *migratable,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmid:", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "tmid:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("tmid: listening on %s (%d shards, queue %d, ttl %s)\n", bound, *shards, *queue, *ttl)

	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Printf("tmid: %s, draining\n", got)
	case err := <-done:
		fmt.Fprintln(os.Stderr, "tmid: serve:", err)
		srv.Drain()
		os.Exit(1)
	}

	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "tmid: shutdown:", err)
	}
	srv.Drain()
	fmt.Println("tmid: drained, bye")
}
