package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// routerMetrics is the router's own registry plus the aggregation point
// for per-node scrapes: /metrics renders the router counters (streams,
// relayed messages, migrations with a latency histogram, membership
// churn, ring generation) and then re-exports a whitelisted slice of each
// alive node's /metrics with a node label, so one scrape sees the whole
// cluster's queue depths and session counts.
type routerMetrics struct {
	now func() time.Time

	streamsTotal    atomic.Uint64
	streamsOpen     atomic.Int64
	streamsFailed   atomic.Uint64 // streams ended with a router-injected wire error
	messagesRelayed atomic.Uint64
	ticksRelayed    atomic.Uint64

	migrationsOK     atomic.Uint64
	migrationsNoop   atomic.Uint64 // source had no session (evicted or never fed)
	migrationsFailed atomic.Uint64
	migratedRecords  atomic.Uint64

	nodesLost      atomic.Uint64
	nodesRecovered atomic.Uint64

	mu        sync.Mutex
	migrateMS histogram // every migration attempt's latency, milliseconds
	// okMS holds the latencies of the most recent successful migrations
	// (at most migrationWindow, overwritten oldest-first from okNext), the
	// sample MigrationStats computes exact quantiles over.
	okMS   []float64
	okNext int
}

// migrationWindow bounds the successful-migration latencies kept for
// MigrationStats, so a long-lived router holds a fixed amount of memory.
const migrationWindow = 1024

// histogram is a fixed-bucket histogram (same shape the service uses).
type histogram struct {
	bounds []float64
	counts []uint64
	sum    float64
	count  uint64
}

func newRouterMetrics(now func() time.Time) *routerMetrics {
	return &routerMetrics{now: now, migrateMS: histogram{
		bounds: []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500},
		counts: make([]uint64, 13),
	}}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// quantile returns the nearest-rank q-quantile of ascending values (0 for
// none): the smallest value with at least a q share of values at or
// below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

// migrationDone records one migration attempt's outcome and latency.
func (m *routerMetrics) migrationDone(result string, records int, d time.Duration) {
	switch result {
	case "ok":
		m.migrationsOK.Add(1)
		m.migratedRecords.Add(uint64(records))
	case "noop":
		m.migrationsNoop.Add(1)
	default:
		m.migrationsFailed.Add(1)
	}
	ms := float64(d) / float64(time.Millisecond)
	m.mu.Lock()
	m.migrateMS.observe(ms)
	if result == "ok" {
		if len(m.okMS) < migrationWindow {
			m.okMS = append(m.okMS, ms)
		} else {
			m.okMS[m.okNext] = ms
			m.okNext = (m.okNext + 1) % migrationWindow
		}
	}
	m.mu.Unlock()
}

// MigrationStats is the harness/tmiload-facing summary of migration
// activity.
type MigrationStats struct {
	OK, Noop, Failed uint64
	Records          uint64
	// P50ms and P99ms are exact nearest-rank quantiles of the latencies of
	// the last migrationWindow successful migrations; noop and failed
	// attempts are left out.
	P50ms, P99ms float64
	// TotalMS is the summed wall time of all observed migrations, so
	// Records/(TotalMS/1000) is the cluster's rebalance throughput.
	TotalMS float64
}

// MigrationStats snapshots migration counters and latency quantiles.
func (rt *Router) MigrationStats() MigrationStats {
	m := rt.metrics
	m.mu.Lock()
	ok := slices.Clone(m.okMS)
	sum := m.migrateMS.sum
	m.mu.Unlock()
	slices.Sort(ok)
	p50, p99 := quantile(ok, 0.50), quantile(ok, 0.99)
	return MigrationStats{
		OK: m.migrationsOK.Load(), Noop: m.migrationsNoop.Load(), Failed: m.migrationsFailed.Load(),
		Records: m.migratedRecords.Load(), P50ms: p50, P99ms: p99, TotalMS: sum,
	}
}

// nodeMetricWhitelist is the slice of each node's /metrics the router
// re-exports under a node label. Short and intentional: the cluster-level
// scrape answers "where are my sessions and how deep are the queues", not
// "mirror every node series".
var nodeMetricWhitelist = []string{
	"tmid_queue_depth",
	"tmid_sessions_active",
	"tmid_streams_open",
	"tmid_ingest_records_total",
	"tmid_sessions_migrated_in_total",
	"tmid_sessions_migrated_out_total",
	"tmid_migrate_failed_total",
}

// handleMetrics renders the router registry and the aggregated node slice.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := rt.metrics
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")

	counter("tmirouter_streams_total", "Client streams admitted and relayed.", m.streamsTotal.Load())
	gauge("tmirouter_streams_open", "Client streams currently relayed.", float64(m.streamsOpen.Load()))
	counter("tmirouter_streams_failed_total", "Streams ended with a router-injected wire error.", m.streamsFailed.Load())
	counter("tmirouter_messages_relayed_total", "Wire messages forwarded to owning nodes.", m.messagesRelayed.Load())
	counter("tmirouter_ticks_relayed_total", "Tick/advice round trips relayed.", m.ticksRelayed.Load())
	fmt.Fprintf(w, "# HELP tmirouter_migrations_total Session migrations by outcome.\n# TYPE tmirouter_migrations_total counter\n")
	fmt.Fprintf(w, "tmirouter_migrations_total{result=\"ok\"} %d\n", m.migrationsOK.Load())
	fmt.Fprintf(w, "tmirouter_migrations_total{result=\"noop\"} %d\n", m.migrationsNoop.Load())
	fmt.Fprintf(w, "tmirouter_migrations_total{result=\"failed\"} %d\n", m.migrationsFailed.Load())
	counter("tmirouter_migrated_records_total", "Sample records shipped in acked migrations.", m.migratedRecords.Load())
	counter("tmirouter_nodes_lost_total", "Nodes pulled from the ring after consecutive failures.", m.nodesLost.Load())
	counter("tmirouter_nodes_recovered_total", "Dead nodes re-admitted after a successful probe.", m.nodesRecovered.Load())
	gauge("tmirouter_ring_generation", "Current ring generation (bumps on every membership change).", float64(rt.gen.Load()))

	m.mu.Lock()
	h := m.migrateMS
	hCounts := append([]uint64(nil), h.counts...)
	hSum, hCount := h.sum, h.count
	m.mu.Unlock()
	fmt.Fprintf(w, "# HELP tmirouter_migration_ms Session migration latency in milliseconds.\n# TYPE tmirouter_migration_ms histogram\n")
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += hCounts[i]
		fmt.Fprintf(w, "tmirouter_migration_ms_bucket{le=\"%g\"} %d\n", b, cum)
	}
	cum += hCounts[len(h.bounds)]
	fmt.Fprintf(w, "tmirouter_migration_ms_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "tmirouter_migration_ms_sum %g\n", hSum)
	fmt.Fprintf(w, "tmirouter_migration_ms_count %d\n", hCount)

	// Membership gauges plus the whitelisted node re-export.
	info := rt.Ring()
	fmt.Fprintf(w, "# HELP tmirouter_node_up 1 when the node answers probes.\n# TYPE tmirouter_node_up gauge\n")
	for _, n := range info.Nodes {
		up := 0
		if n.Alive {
			up = 1
		}
		fmt.Fprintf(w, "tmirouter_node_up{node=%q} %d\n", n.URL, up)
	}
	fmt.Fprintf(w, "# HELP tmirouter_node_streams Streams currently relayed per node.\n# TYPE tmirouter_node_streams gauge\n")
	for _, n := range info.Nodes {
		fmt.Fprintf(w, "tmirouter_node_streams{node=%q} %d\n", n.URL, n.ActiveStreams)
	}
	for _, n := range info.Nodes {
		if !n.Alive {
			continue
		}
		lines, err := scrapeNode(rt.cfg.HTTP, n.URL)
		if err != nil {
			continue // the gap itself shows up as tmirouter_node_up
		}
		w.Write(lines)
	}
}

// scrapeNode fetches one node's /metrics and rewrites the whitelisted
// series with a node label (tmid_queue_depth{shard="0"} becomes
// tmid_queue_depth{node="...",shard="0"}).
func scrapeNode(hc *http.Client, url string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics %s", resp.Status)
	}
	var out strings.Builder
	sc := bufio.NewScanner(io.LimitReader(resp.Body, 1<<20))
	sc.Buffer(make([]byte, 64<<10), 64<<10)
	for sc.Scan() {
		line := sc.Text()
		name, rest, matched := matchWhitelisted(line)
		if !matched {
			continue
		}
		out.WriteString(name)
		if strings.HasPrefix(rest, "{") {
			fmt.Fprintf(&out, "{node=%q,%s\n", url, rest[1:])
		} else {
			fmt.Fprintf(&out, "{node=%q}%s\n", url, rest)
		}
	}
	return []byte(out.String()), sc.Err()
}

// matchWhitelisted splits a sample line into (metric name, remainder) when
// the metric is whitelisted; comment lines and other metrics don't match.
func matchWhitelisted(line string) (string, string, bool) {
	if line == "" || line[0] == '#' {
		return "", "", false
	}
	for _, name := range nodeMetricWhitelist {
		if strings.HasPrefix(line, name) {
			rest := line[len(name):]
			if rest == "" {
				return "", "", false
			}
			if rest[0] == '{' || rest[0] == ' ' {
				return name, rest, true
			}
		}
	}
	return "", "", false
}
