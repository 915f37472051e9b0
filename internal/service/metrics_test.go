package service

import (
	"os"
	"testing"
	"time"

	"repro/internal/toolio"
)

// TestMetricsExpositionGolden pins /metrics byte for byte after a fixed
// run on a fake clock: one tenant's synthetic log, a handful of advice
// latencies observed directly so several buckets and backends fill, and
// 90.25 s of uptime, so every value is independent of the host. The
// golden was recorded from the exposition as it was before the text
// format moved into internal/obs, so every series name, help text, label
// and number format must render exactly as before.
func TestMetricsExpositionGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	srv, hs := newTestServer(t, Config{Shards: 2, RecommendBackend: "auto", now: clk.now})
	log := syntheticLog()
	if _, err := (&Client{BaseURL: hs.URL, Tenant: "expo-1", PageSize: log.PageSize}).Replay(log, 1); err != nil {
		t.Fatal(err)
	}
	for i, ms := range []float64{0.03, 0.7, 40, 2000} {
		backend := []string{"tmebox", "", "map", "pad"}[i]
		srv.metrics.observeAdvice(toolio.WireAdvice{Backend: backend}, time.Duration(ms*float64(time.Millisecond)))
	}
	// The handler closes its stream just after the client reads the last
	// advice line.
	for deadline := time.Now().Add(5 * time.Second); srv.metrics.streamsOpen.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("stream never closed")
		}
		time.Sleep(time.Millisecond)
	}
	clk.advance(90*time.Second + 250*time.Millisecond)
	if got := scrape(t, hs.URL); got != string(want) {
		t.Errorf("/metrics differs from testdata/metrics.prom:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
