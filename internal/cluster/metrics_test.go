package cluster

import (
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// routerIdle reports whether no stream is relayed any more.
func routerIdle(rt *Router) bool {
	if rt.metrics.streamsOpen.Load() != 0 {
		return false
	}
	for _, n := range rt.Ring().Nodes {
		if n.ActiveStreams != 0 {
			return false
		}
	}
	return true
}

// scrapeMetrics GETs url's /metrics, failing t unless it answers 200.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s/metrics: status %d", url, resp.StatusCode)
	}
	return string(body)
}

// TestRouterMetricsExpositionGolden pins the router's /metrics byte for
// byte after a fixed run on a frozen router clock: one tenant replayed
// through a two-node cluster, its session migrated to the other node, a
// migration of a tenant nobody holds, and three attempts observed
// directly so several histogram buckets fill. Node URLs carry ephemeral
// ports, so they are renamed http://node-a and http://node-b in URL
// order, the order the router lists them in. The golden was recorded from
// the exposition as it was before the text format moved into
// internal/obs, with the re-exported node series (tmid_*{node=...})
// taken out: the router no longer scrapes its nodes.
func TestRouterMetricsExpositionGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	frozen := time.Unix(1_700_000_000, 0)
	lc := newLocal(t, 2, Config{ProbeInterval: -1, now: func() time.Time { return frozen }})
	log := syntheticLog()
	if _, err := (&service.Client{BaseURL: lc.RouterURL, Tenant: "expo-1", PageSize: log.PageSize}).Replay(log, 1); err != nil {
		t.Fatal(err)
	}
	// The relay closes its leg just after the client reads the last advice.
	for deadline := time.Now().Add(5 * time.Second); !routerIdle(lc.Router); {
		if time.Now().After(deadline) {
			t.Fatal("relayed stream never closed")
		}
		time.Sleep(time.Millisecond)
	}
	urls := lc.NodeURLs()
	sort.Strings(urls)
	owner, ok := lc.Router.pickOwner("expo-1")
	if !ok {
		t.Fatal("no owner for expo-1")
	}
	other := urls[0]
	if other == owner {
		other = urls[1]
	}
	if n, err := lc.Router.MigrateTenant(owner, other, "expo-1"); err != nil || n != log.Len() {
		t.Fatalf("migrate: %d records, %v; want %d", n, err, log.Len())
	}
	if n, err := lc.Router.MigrateTenant(owner, other, "expo-none"); err != nil || n != 0 {
		t.Fatalf("noop migrate: %d records, %v", n, err)
	}
	lc.Router.metrics.migrationDone("failed", 0, 3*time.Second)
	lc.Router.metrics.migrationDone("ok", 5, 7500*time.Microsecond)
	lc.Router.metrics.migrationDone("ok", 7, 300*time.Microsecond)

	got := strings.NewReplacer(urls[0], "http://node-a", urls[1], "http://node-b").Replace(scrapeMetrics(t, lc.RouterURL))
	if got != string(want) {
		t.Errorf("/metrics differs from testdata/metrics.prom:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
