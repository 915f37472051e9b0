package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/toolio"
)

// Metrics is tmid's metric registry, rendered in the Prometheus text
// exposition format by WriteTo. Counters are atomics updated from shard
// loops and handlers; the histogram takes a small mutex (cold paths: one
// observation per tick, one snapshot per scrape). Rendering reads state
// and never changes it, so any number of scrapers see the same values.
type Metrics struct {
	now   func() time.Time
	start time.Time

	records        atomic.Uint64 // samples ingested into detectors
	droppedRecords atomic.Uint64 // samples discarded on enqueue timeout
	droppedBatches atomic.Uint64
	invalidBatches atomic.Uint64 // batches refused by the shard (bad session params)
	rejected       atomic.Uint64 // streams turned away with 429
	streamsTotal   atomic.Uint64
	streamsOpen    atomic.Int64
	wireFrames     atomic.Uint64 // binary frames decoded (samples + ticks)
	ticks          atomic.Uint64
	classTrue      atomic.Uint64 // advice lines classified true sharing
	classFalse     atomic.Uint64 // advice lines classified false sharing
	advicePages    atomic.Uint64 // pages recommended for isolation

	sessionsActive  atomic.Int64
	sessionsEvicted atomic.Uint64
	migratedIn      atomic.Uint64 // sessions installed by /v1/import
	migratedOut     atomic.Uint64 // sessions cut over after a /v1/migrate ack
	migrateFailed   atomic.Uint64 // imports/pushes that failed (session kept)

	mu      sync.Mutex
	latency histogram
	// adviceBackend counts advice messages that carried each repair-backend
	// recommendation (empty when no recommendation policy is configured).
	adviceBackend map[string]uint64
}

func newMetrics(now func() time.Time) *Metrics {
	return &Metrics{now: now, start: now(), latency: newLatencyHistogram()}
}

// observeAdvice folds one advice reply into the classification counters and
// the latency histogram.
func (m *Metrics) observeAdvice(adv toolio.WireAdvice, latency time.Duration) {
	m.advicePages.Add(uint64(len(adv.Pages)))
	for _, l := range adv.Lines {
		switch l.Class {
		case "true":
			m.classTrue.Add(1)
		case "false":
			m.classFalse.Add(1)
		}
	}
	m.mu.Lock()
	m.latency.observe(latency.Seconds())
	if adv.Backend != "" {
		if m.adviceBackend == nil {
			m.adviceBackend = map[string]uint64{}
		}
		m.adviceBackend[adv.Backend]++
	}
	m.mu.Unlock()
}

// histogram is a fixed-bucket Prometheus-style histogram.
type histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf is implicit
	counts []uint64  // len(bounds)+1
	sum    float64
	count  uint64
}

func newLatencyHistogram() histogram {
	bounds := []float64{50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3, 1}
	return histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// WriteTo renders the registry in Prometheus text format. queueDepths and
// queueCap describe the shards' ingest queues at scrape time.
func (m *Metrics) WriteTo(w io.Writer, queueDepths []int, queueCap int, draining bool) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	counter("tmid_ingest_records_total", "Resolved samples ingested into detector sessions.", m.records.Load())
	counter("tmid_ingest_dropped_records_total", "Samples dropped because a shard queue stayed saturated past the enqueue wait.", m.droppedRecords.Load())
	counter("tmid_ingest_dropped_batches_total", "Sample batches dropped on enqueue timeout.", m.droppedBatches.Load())
	counter("tmid_ingest_invalid_batches_total", "Batches refused by a shard (invalid session parameters).", m.invalidBatches.Load())
	counter("tmid_streams_total", "Client streams admitted.", m.streamsTotal.Load())
	counter("tmid_streams_rejected_total", "Client streams rejected with 429 because the tenant's shard was saturated.", m.rejected.Load())
	counter("tmid_wire_frames_total", "Binary wire frames decoded (samples and ticks).", m.wireFrames.Load())
	gauge("tmid_streams_open", "Client streams currently connected.", float64(m.streamsOpen.Load()))
	counter("tmid_ticks_total", "Analysis windows closed (advice messages produced).", m.ticks.Load())
	counter("tmid_classified_lines_true_total", "Advice lines classified as true sharing.", m.classTrue.Load())
	counter("tmid_classified_lines_false_total", "Advice lines classified as false sharing.", m.classFalse.Load())
	counter("tmid_advice_pages_total", "Pages recommended for isolation across all advice.", m.advicePages.Load())
	gauge("tmid_sessions_active", "Tenant sessions currently resident.", float64(m.sessionsActive.Load()))
	counter("tmid_sessions_evicted_total", "Tenant sessions evicted after the idle TTL.", m.sessionsEvicted.Load())
	counter("tmid_sessions_migrated_in_total", "Sessions rebuilt and installed by /v1/import.", m.migratedIn.Load())
	counter("tmid_sessions_migrated_out_total", "Sessions removed after a destination acked their migration.", m.migratedOut.Load())
	counter("tmid_migrate_failed_total", "Migration imports or pushes that failed (source session kept).", m.migrateFailed.Load())

	// Queue depth per shard plus the shared capacity bound.
	fmt.Fprintf(w, "# HELP tmid_queue_depth Pending jobs in each shard's bounded ingest queue.\n# TYPE tmid_queue_depth gauge\n")
	for i, d := range queueDepths {
		fmt.Fprintf(w, "tmid_queue_depth{shard=\"%d\"} %d\n", i, d)
	}
	gauge("tmid_queue_capacity", "Per-shard ingest queue capacity.", float64(queueCap))

	drainingV := 0.0
	if draining {
		drainingV = 1
	}
	gauge("tmid_draining", "1 while the server is draining for shutdown.", drainingV)

	m.mu.Lock()
	h := m.latency
	hCounts := append([]uint64(nil), h.counts...)
	hSum, hCount := h.sum, h.count
	backends := make([]string, 0, len(m.adviceBackend))
	for b := range m.adviceBackend {
		backends = append(backends, b)
	}
	sort.Strings(backends)
	backendCounts := make([]uint64, len(backends))
	for i, b := range backends {
		backendCounts[i] = m.adviceBackend[b]
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# HELP tmid_advice_latency_seconds Tick-to-advice latency (enqueue to reply).\n# TYPE tmid_advice_latency_seconds histogram\n")
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += hCounts[i]
		fmt.Fprintf(w, "tmid_advice_latency_seconds_bucket{le=\"%g\"} %d\n", b, cum)
	}
	cum += hCounts[len(h.bounds)]
	fmt.Fprintf(w, "tmid_advice_latency_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "tmid_advice_latency_seconds_sum %g\n", hSum)
	fmt.Fprintf(w, "tmid_advice_latency_seconds_count %d\n", hCount)

	if len(backends) > 0 {
		fmt.Fprintf(w, "# HELP tmid_advice_backend_total Advice messages by recommended repair backend.\n# TYPE tmid_advice_backend_total counter\n")
		for i, b := range backends {
			fmt.Fprintf(w, "tmid_advice_backend_total{backend=%q} %d\n", b, backendCounts[i])
		}
	}

	gauge("tmid_uptime_seconds", "Seconds since the server started.", m.now().Sub(m.start).Seconds())
}
