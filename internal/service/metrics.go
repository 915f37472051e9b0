package service

import (
	"io"
	"maps"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/toolio"
)

// Metrics holds tmid's counters, gauges and latency histogram, rendered in
// the Prometheus text exposition format by WriteTo. Counters are atomics
// updated from shard loops and handlers; the histogram takes a small mutex
// (cold paths: one observation per tick, one snapshot per scrape).
// Rendering reads state and never changes it, so any number of scrapers
// see the same values.
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
	latency obs.Histogram
	// adviceBackend counts advice messages that carried each repair-backend
	// recommendation (empty when no recommendation policy is configured).
	adviceBackend map[string]uint64
}

func newMetrics(now func() time.Time) *Metrics {
	latency := obs.NewHistogram(50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3, 1)
	return &Metrics{now: now, start: now(), latency: latency}
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
	m.latency.Observe(latency.Seconds())
	if adv.Backend != "" {
		if m.adviceBackend == nil {
			m.adviceBackend = map[string]uint64{}
		}
		m.adviceBackend[adv.Backend]++
	}
	m.mu.Unlock()
}

// WriteTo renders the metrics in Prometheus text format. queueDepths and
// queueCap describe the shards' ingest queues at scrape time.
func (m *Metrics) WriteTo(w io.Writer, queueDepths []int, queueCap int, draining bool) {
	obs.Counter(w, "tmid_ingest_records_total", "Resolved samples ingested into detector sessions.", m.records.Load())
	obs.Counter(w, "tmid_ingest_dropped_records_total", "Samples dropped because a shard queue stayed saturated past the enqueue wait.", m.droppedRecords.Load())
	obs.Counter(w, "tmid_ingest_dropped_batches_total", "Sample batches dropped on enqueue timeout.", m.droppedBatches.Load())
	obs.Counter(w, "tmid_ingest_invalid_batches_total", "Batches refused by a shard (invalid session parameters).", m.invalidBatches.Load())
	obs.Counter(w, "tmid_streams_total", "Client streams admitted.", m.streamsTotal.Load())
	obs.Counter(w, "tmid_streams_rejected_total", "Client streams rejected with 429 because the tenant's shard was saturated.", m.rejected.Load())
	obs.Counter(w, "tmid_wire_frames_total", "Binary wire frames decoded (samples and ticks).", m.wireFrames.Load())
	obs.Gauge(w, "tmid_streams_open", "Client streams currently connected.", float64(m.streamsOpen.Load()))
	obs.Counter(w, "tmid_ticks_total", "Analysis windows closed (advice messages produced).", m.ticks.Load())
	obs.Counter(w, "tmid_classified_lines_true_total", "Advice lines classified as true sharing.", m.classTrue.Load())
	obs.Counter(w, "tmid_classified_lines_false_total", "Advice lines classified as false sharing.", m.classFalse.Load())
	obs.Counter(w, "tmid_advice_pages_total", "Pages recommended for isolation across all advice.", m.advicePages.Load())
	obs.Gauge(w, "tmid_sessions_active", "Tenant sessions currently resident.", float64(m.sessionsActive.Load()))
	obs.Counter(w, "tmid_sessions_evicted_total", "Tenant sessions evicted after the idle TTL.", m.sessionsEvicted.Load())
	obs.Counter(w, "tmid_sessions_migrated_in_total", "Sessions rebuilt and installed by /v1/import.", m.migratedIn.Load())
	obs.Counter(w, "tmid_sessions_migrated_out_total", "Sessions removed after a destination acked their migration.", m.migratedOut.Load())
	obs.Counter(w, "tmid_migrate_failed_total", "Migration imports or pushes that failed (source session kept).", m.migrateFailed.Load())

	// Queue depth per shard plus the shared capacity bound.
	obs.Header(w, "tmid_queue_depth", "Pending jobs in each shard's bounded ingest queue.", "gauge")
	for i, d := range queueDepths {
		obs.Sample(w, "tmid_queue_depth", "shard", strconv.Itoa(i), d)
	}
	obs.Gauge(w, "tmid_queue_capacity", "Per-shard ingest queue capacity.", float64(queueCap))

	drainingV := 0.0
	if draining {
		drainingV = 1
	}
	obs.Gauge(w, "tmid_draining", "1 while the server is draining for shutdown.", drainingV)

	m.mu.Lock()
	latency := m.latency.Snapshot()
	backends := maps.Clone(m.adviceBackend)
	m.mu.Unlock()

	obs.WriteHistogram(w, "tmid_advice_latency_seconds", "Tick-to-advice latency (enqueue to reply).", latency)

	if len(backends) > 0 {
		obs.Header(w, "tmid_advice_backend_total", "Advice messages by recommended repair backend.", "counter")
		for _, b := range slices.Sorted(maps.Keys(backends)) {
			obs.Sample(w, "tmid_advice_backend_total", "backend", b, backends[b])
		}
	}

	obs.Gauge(w, "tmid_uptime_seconds", "Seconds since the server started.", m.now().Sub(m.start).Seconds())
}
