// Command tmiload is the load generator and parity checker for tmid. It
// runs a workload once under TMI's detection-only simulator with sample
// capture on, which yields a replayable HITM trace; then K concurrent
// clients stream that trace to a tmid server (each as its own tenant, the
// samples and ticks as binary frames) and every advice stream coming back is compared byte-for-byte against the
// offline detector's advice over the same trace (service.Replay — the same
// stream tmidetect -advice prints).
//
// Usage:
//
//	tmiload -addr 127.0.0.1:7412                    # 8 clients, histogramfs
//	tmiload -addr $A -clients 64 -min-records 100000
//
// Cluster chaos mode spins up an in-process cluster (router + N
// migratable tmid nodes, every hop a real HTTP connection) and streams
// through the router while membership churns under the fleet:
//
//	tmiload -cluster 3                              # 3 nodes behind a router
//	tmiload -cluster 2 -kill-after 150ms -add-after 100ms
//
// -kill-after hard-kills node 0 mid-run (its sessions are lost; affected
// clients must retry and still converge on byte-identical advice);
// -add-after admits a fresh node through the router admin API, forcing
// live session migrations at clean stream boundaries. The parity bar is
// unchanged: every client's advice must match the offline replay
// byte-for-byte, and no session may be lost.
//
// Exit status: 0 when every client finished with byte-identical advice,
// 1 on any mismatch or lost session, 2 on usage errors.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/detect"
	"repro/internal/service"
	"repro/internal/toolio"
	"repro/tmi"
	"repro/tmi/workloads"
)

// assertAdditive checks that rec (a recommending advice stream) differs
// from plain only by "backend" keys: deleting them line-by-line must
// reproduce plain exactly.
func assertAdditive(rec, plain []byte) error {
	recLines := bytes.Split(bytes.TrimSuffix(rec, []byte("\n")), []byte("\n"))
	plainLines := bytes.Split(bytes.TrimSuffix(plain, []byte("\n")), []byte("\n"))
	if len(recLines) != len(plainLines) {
		return fmt.Errorf("line counts differ: %d vs %d", len(recLines), len(plainLines))
	}
	for i, line := range recLines {
		m, err := toolio.DecodeWireMsg(line)
		if err != nil {
			return fmt.Errorf("advice %d: %w", i, err)
		}
		stripped := line
		if m.Backend != "" {
			stripped = bytes.Replace(line, []byte(fmt.Sprintf(",%q:%q", "backend", m.Backend)), nil, 1)
		}
		if !bytes.Equal(stripped, plainLines[i]) {
			return fmt.Errorf("advice %d differs beyond the backend field:\n  with policy: %s\n  without:     %s", i, line, plainLines[i])
		}
	}
	return nil
}

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7412", "tmid server address (host:port)")
		clients    = flag.Int("clients", 8, "concurrent replay clients (one tenant each)")
		name       = flag.String("workload", "histogramfs", "workload generating the HITM trace (see tmirun -list)")
		period     = flag.Int("period", 100, "perf sampling period for the trace-generating run")
		seed       = flag.Int64("seed", 1, "determinism seed for the trace-generating run")
		huge       = flag.Bool("hugepages", true, "back the trace-generating run with 2 MiB pages")
		repeat     = flag.Int("repeat", 1, "times each client replays the trace (detector state carries across)")
		minRecords = flag.Int("min-records", 0, "raise repeat until each client streams at least this many records")
		batch      = flag.Int("batch", service.DefaultBatchRecords, "samples per samples frame")
		retries    = flag.Int("retries", 20, "attempts per client when the server answers busy (fresh tenant each time)")
		adviceOut  = flag.String("advice-out", "", "write the parity-verified offline advice stream to this file (for external diffing)")
		recommend  = flag.String("recommend", "", "repair-backend recommendation policy the target tmid was launched with (its -recommend flag); the offline truth carries the recommendation and its additivity over the policy-free advice is asserted")
		clusterN   = flag.Int("cluster", 0, "run against an in-process cluster of N migratable tmid nodes behind a tmirouter instead of -addr")
		killAfter  = flag.Duration("kill-after", 0, "cluster chaos: hard-kill node 0 this long after the fleet starts")
		addAfter   = flag.Duration("add-after", 0, "cluster chaos: add a fresh node via the router admin API this long after the fleet starts")
	)
	flag.Parse()

	if *clusterN <= 0 && (*killAfter > 0 || *addAfter > 0) {
		fmt.Fprintln(os.Stderr, "tmiload: -kill-after/-add-after need -cluster")
		os.Exit(2)
	}

	if !detect.ValidRecommendPolicy(*recommend) {
		fmt.Fprintf(os.Stderr, "tmiload: unknown -recommend policy %q (want none, auto, t2p, pad, map, or tmebox)\n", *recommend)
		os.Exit(2)
	}

	w, err := workloads.ByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmiload:", err)
		os.Exit(2)
	}
	rep, err := tmi.Run(w, tmi.Config{
		System: tmi.TMIDetect, Period: *period, HugePages: *huge,
		Seed: *seed, CaptureSamples: true,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmiload:", err)
		os.Exit(2)
	}
	log := rep.SampleLog
	if log == nil || log.Len() == 0 || len(log.Windows) == 0 {
		fmt.Fprintf(os.Stderr, "tmiload: workload %s produced no captured samples (try a lower -period)\n", *name)
		os.Exit(2)
	}
	if *minRecords > 0 {
		for *repeat*log.Len() < *minRecords {
			*repeat++
		}
	}

	// Offline truth: same trace, same traversal, same detector config the
	// server defaults to. Clients must match this byte-for-byte.
	dcfg := detect.Config{
		ThresholdPerSec: detect.DefaultConfig().ThresholdPerSec,
		MinRecords:      detect.DefaultConfig().MinRecords,
	}
	periods := detect.DefaultPeriodController()
	want, err := service.ReplayWithPolicy(log, log.PageSize, dcfg, periods, *repeat, *recommend)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmiload:", err)
		os.Exit(2)
	}
	if *recommend != "" && *recommend != "none" {
		// The recommendation must be strictly additive: stripping the backend
		// key from every advice line reproduces the policy-free stream
		// byte-for-byte. A perturbation here means the recommending server
		// would change verdicts, not just annotate them.
		plain, err := service.Replay(log, log.PageSize, dcfg, periods, *repeat)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tmiload:", err)
			os.Exit(2)
		}
		if err := assertAdditive(want, plain); err != nil {
			fmt.Fprintf(os.Stderr, "tmiload: -recommend %s perturbs advice: %v\n", *recommend, err)
			os.Exit(1)
		}
		fmt.Printf("tmiload: -recommend %s advice is additive over the policy-free stream\n", *recommend)
	}
	if *adviceOut != "" {
		if err := os.WriteFile(*adviceOut, want, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "tmiload:", err)
			os.Exit(2)
		}
	}

	base := "http://" + *addr
	if strings.Contains(*addr, "://") {
		base = *addr
	}
	var lc *cluster.Local
	if *clusterN > 0 {
		var err error
		// Fast probes and a low failure threshold: chaos runs are short, and
		// a killed node must leave the ring well inside the retry budget.
		lc, err = cluster.NewLocal(*clusterN, service.Config{}, cluster.Config{
			ProbeInterval: 100 * time.Millisecond, FailAfter: 2,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "tmiload:", err)
			os.Exit(2)
		}
		defer lc.Close()
		base = lc.RouterURL
	}
	perClient := *repeat * log.Len()
	fmt.Printf("tmiload: %s trace: %d records over %d windows (x%d replay = %d records/client), %d clients -> %s\n",
		*name, log.Len(), len(log.Windows), *repeat, perClient, *clients, base)
	if lc != nil {
		fmt.Printf("tmiload: cluster: %d nodes behind router (kill-after %s, add-after %s)\n", *clusterN, *killAfter, *addAfter)
	}

	// runFleet drives the full client fleet once and returns the aggregate.
	// Every client's advice is compared byte-for-byte against the offline
	// replay.
	runFleet := func() (okN, mismatched, lost, records int, elapsed time.Duration) {
		type outcome struct {
			tenant   string
			attempts int
			records  int
			ticks    int
			match    bool
			err      error
		}
		results := make([]outcome, *clients)
		start := time.Now()
		if lc != nil {
			if *killAfter > 0 {
				time.AfterFunc(*killAfter, func() {
					fmt.Printf("tmiload: chaos: killed node %s\n", lc.Kill(0))
				})
			}
			if *addAfter > 0 {
				time.AfterFunc(*addAfter, func() {
					url, err := lc.AddNode()
					if err != nil {
						fmt.Fprintf(os.Stderr, "tmiload: chaos: add node: %v\n", err)
						return
					}
					fmt.Printf("tmiload: chaos: added node %s\n", url)
				})
			}
		}
		var wg sync.WaitGroup
		for c := 0; c < *clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				out := outcome{}
				for attempt := 0; attempt < *retries; attempt++ {
					out.attempts = attempt + 1
					// A fresh tenant per attempt: a busy-aborted stream may have
					// fed the server a partial window, and resuming that session
					// would (correctly!) change its advice. The abandoned tenant
					// ages out via the session TTL.
					out.tenant = fmt.Sprintf("load-%d-a%d", c, attempt)
					out.err = nil
					cl := &service.Client{
						BaseURL:      base,
						Tenant:       out.tenant,
						PageSize:     log.PageSize,
						BatchRecords: *batch,
					}
					res, err := cl.Replay(log, *repeat)
					if busy, ok := err.(*service.ErrBusy); ok {
						time.Sleep(busy.RetryAfter)
						continue
					}
					if err != nil {
						out.err = err
						if lc == nil {
							break
						}
						// Cluster chaos: every failure is retryable. A killed
						// node severs streams with transport errors, a router
						// mid-rebalance with retryable wire errors; a fresh
						// tenant replays from scratch either way, so parity
						// survives any interleaving of failures.
						time.Sleep(150 * time.Millisecond)
						continue
					}
					out.records, out.ticks = res.Records, res.Ticks
					out.match = bytes.Equal(res.Advice, want)
					if !out.match {
						out.err = fmt.Errorf("advice diverged from offline replay (%d vs %d bytes)", len(res.Advice), len(want))
					}
					break
				}
				if out.err == nil && out.ticks == 0 {
					out.err = fmt.Errorf("gave up after %d busy attempts", out.attempts)
				}
				results[c] = out
			}(c)
		}
		wg.Wait()
		elapsed = time.Since(start)

		for _, out := range results {
			switch {
			case out.match:
				okN++
				records += out.records
			case out.ticks == 0:
				lost++
			default:
				mismatched++
			}
			if out.err != nil {
				fmt.Fprintf(os.Stderr, "tmiload: %s: %v\n", out.tenant, out.err)
			}
		}
		return okN, mismatched, lost, records, elapsed
	}

	ok, mismatched, lost, records, elapsed := runFleet()
	fmt.Printf("tmiload: %d/%d clients parity-ok, %d mismatched, %d lost; %d records in %s (%.0f records/s)\n",
		ok, *clients, mismatched, lost, records, elapsed.Round(time.Millisecond), float64(records)/elapsed.Seconds())
	failed := mismatched > 0 || lost > 0
	if lc != nil {
		ms := lc.Router.MigrationStats()
		fmt.Printf("tmiload: cluster: ring gen %d; migrations ok=%d noop=%d failed=%d (%d records, p50 %.1fms p99 %.1fms)\n",
			lc.Router.Generation(), ms.OK, ms.Noop, ms.Failed, ms.Records, ms.P50ms, ms.P99ms)
	}
	if failed {
		fmt.Println("tmiload: FAIL")
		os.Exit(1)
	}
	fmt.Println("tmiload: PASS (all advice byte-identical to offline detector)")
}
