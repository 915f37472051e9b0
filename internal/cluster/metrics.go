package cluster

import (
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// routerMetrics holds the router's own series: streams, relayed messages,
// migrations with a latency histogram, membership churn. /metrics renders
// them plus the ring generation and per-node membership gauges. Node
// series stay on the nodes: a scraper finds them through /admin/ring and
// scrapes each node's /metrics directly.
type routerMetrics struct {
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
	migrateMS obs.Histogram // every migration attempt's latency, milliseconds
	// okMS holds the latencies of the most recent successful migrations
	// (at most migrationWindow, overwritten oldest-first from okNext), the
	// sample MigrationStats computes exact quantiles over.
	okMS   []float64
	okNext int
}

// migrationWindow bounds the successful-migration latencies kept for
// MigrationStats, so a long-lived router holds a fixed amount of memory.
const migrationWindow = 1024

func newRouterMetrics() *routerMetrics {
	return &routerMetrics{migrateMS: obs.NewHistogram(0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500)}
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
	m.migrateMS.Observe(ms)
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
	sum := m.migrateMS.Sum
	m.mu.Unlock()
	slices.Sort(ok)
	p50, p99 := quantile(ok, 0.50), quantile(ok, 0.99)
	return MigrationStats{
		OK: m.migrationsOK.Load(), Noop: m.migrationsNoop.Load(), Failed: m.migrationsFailed.Load(),
		Records: m.migratedRecords.Load(), P50ms: p50, P99ms: p99, TotalMS: sum,
	}
}

// handleMetrics renders the router's series and its view of each member.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := rt.metrics
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")

	obs.Counter(w, "tmirouter_streams_total", "Client streams admitted and relayed.", m.streamsTotal.Load())
	obs.Gauge(w, "tmirouter_streams_open", "Client streams currently relayed.", float64(m.streamsOpen.Load()))
	obs.Counter(w, "tmirouter_streams_failed_total", "Streams ended with a router-injected wire error.", m.streamsFailed.Load())
	obs.Counter(w, "tmirouter_messages_relayed_total", "Wire messages forwarded to owning nodes.", m.messagesRelayed.Load())
	obs.Counter(w, "tmirouter_ticks_relayed_total", "Tick/advice round trips relayed.", m.ticksRelayed.Load())
	obs.Header(w, "tmirouter_migrations_total", "Session migrations by outcome.", "counter")
	obs.Sample(w, "tmirouter_migrations_total", "result", "ok", m.migrationsOK.Load())
	obs.Sample(w, "tmirouter_migrations_total", "result", "noop", m.migrationsNoop.Load())
	obs.Sample(w, "tmirouter_migrations_total", "result", "failed", m.migrationsFailed.Load())
	obs.Counter(w, "tmirouter_migrated_records_total", "Sample records shipped in acked migrations.", m.migratedRecords.Load())
	obs.Counter(w, "tmirouter_nodes_lost_total", "Nodes pulled from the ring after consecutive failures.", m.nodesLost.Load())
	obs.Counter(w, "tmirouter_nodes_recovered_total", "Dead nodes re-admitted after a successful probe.", m.nodesRecovered.Load())
	obs.Gauge(w, "tmirouter_ring_generation", "Current ring generation (bumps on every membership change).", float64(rt.gen.Load()))

	m.mu.Lock()
	migrateMS := m.migrateMS.Snapshot()
	m.mu.Unlock()
	obs.WriteHistogram(w, "tmirouter_migration_ms", "Session migration latency in milliseconds.", migrateMS)

	info := rt.Ring()
	obs.Header(w, "tmirouter_node_up", "1 when the node answers probes.", "gauge")
	for _, n := range info.Nodes {
		up := 0
		if n.Alive {
			up = 1
		}
		obs.Sample(w, "tmirouter_node_up", "node", n.URL, up)
	}
	obs.Header(w, "tmirouter_node_streams", "Streams currently relayed per node.", "gauge")
	for _, n := range info.Nodes {
		obs.Sample(w, "tmirouter_node_streams", "node", n.URL, n.ActiveStreams)
	}
}
