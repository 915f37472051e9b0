package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/sim/trace"
	"repro/internal/toolio"
)

// streamWindows drives windows [lo,hi) of log through one /v1/stream
// exchange with stream-global tick seq numbers (so advice from split
// streams concatenates byte-identically to one continuous stream), plus an
// optional trailing half-window, and returns the advice bytes.
func streamWindows(t *testing.T, baseURL, tenant string, log *trace.SampleLog, lo, hi int, tail []detect.Sample) []byte {
	t.Helper()
	pr, pw := io.Pipe()
	go func() {
		bw := bufio.NewWriterSize(pw, 64<<10)
		werr := func() error {
			hello := toolio.WireHello{K: toolio.WireHelloKind, Version: toolio.SchemaVersion, Tenant: tenant, PageSize: log.PageSize, Wire: toolio.WireFormatBinary}
			if _, err := bw.Write(toolio.EncodeWire(hello)); err != nil {
				return err
			}
			enc := toolio.NewBinWriter(bw)
			var cols toolio.SampleColumns
			for i := lo; i < hi; i++ {
				if err := writeSampleFrames(enc, &cols, log.WindowSamples(i), DefaultBatchRecords); err != nil {
					return err
				}
				w := log.Windows[i]
				if err := enc.WriteTick(toolio.WireTick{K: toolio.WireTickKind, Seq: i, IntervalSec: w.IntervalSec, Period: w.Period}); err != nil {
					return err
				}
			}
			if err := writeSampleFrames(enc, &cols, tail, DefaultBatchRecords); err != nil {
				return err
			}
			return bw.Flush()
		}()
		pw.CloseWithError(werr)
	}()
	resp, err := http.Post(baseURL+"/v1/stream", "application/x-ndjson", pr)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %s", resp.Status)
	}
	advice, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read advice: %v", err)
	}
	return advice
}

// migrate posts a migrate request to src and returns the decoded ack.
func migrate(t *testing.T, srcURL, tenant, targetURL string) (migrateAck, int) {
	t.Helper()
	body, _ := json.Marshal(migrateRequest{Tenant: tenant, Target: targetURL})
	resp, err := http.Post(srcURL+"/v1/migrate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	defer resp.Body.Close()
	var ack migrateAck
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatalf("migrate ack: %v", err)
		}
	}
	return ack, resp.StatusCode
}

// exportLog fetches and parses a tenant's migration snapshot, or returns
// the non-200 status.
func exportLog(t *testing.T, baseURL, tenant string) (*trace.SampleLog, int) {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/export?tenant=" + tenant)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	gotTenant, log, err := readMigrationStream(bufio.NewReader(resp.Body), toolio.MaxWireLine, 1<<22)
	if err != nil {
		t.Fatalf("parse export: %v", err)
	}
	if gotTenant != tenant {
		t.Fatalf("export tenant %q, want %q", gotTenant, tenant)
	}
	return log, http.StatusOK
}

// TestMigrateContinuesAdviceByteIdentical is the core live-rebalancing
// contract: stream half a trace to node A, migrate the session to node B,
// stream the rest to B — the concatenated advice must be byte-identical to
// one uninterrupted stream (and to the offline replay).
func TestMigrateContinuesAdviceByteIdentical(t *testing.T) {
	log := syntheticLog()
	_, hsA := newTestServer(t, Config{Shards: 2, Migratable: true, NodeID: "a"})
	_, hsB := newTestServer(t, Config{Shards: 2, Migratable: true, NodeID: "b"})

	want, err := Replay(log, log.PageSize, detect.Config{}, detect.DefaultPeriodController(), 1)
	if err != nil {
		t.Fatal(err)
	}

	const tenant = "mig-1"
	cut := len(log.Windows) / 2
	adv1 := streamWindows(t, hsA.URL, tenant, log, 0, cut, nil)

	ack, status := migrate(t, hsA.URL, tenant, hsB.URL)
	if status != http.StatusOK || !ack.Migrated {
		t.Fatalf("migrate: status %d, ack %+v", status, ack)
	}
	if ack.Windows != cut || ack.Records != log.Windows[cut-1].End {
		t.Fatalf("ack %+v, want %d windows / %d records", ack, cut, log.Windows[cut-1].End)
	}
	// Source cut over: the session exists only on B now.
	if _, status := exportLog(t, hsA.URL, tenant); status != http.StatusNotFound {
		t.Fatalf("source still has the session after ack (status %d)", status)
	}
	moved, status := exportLog(t, hsB.URL, tenant)
	if status != http.StatusOK || moved.Len() != ack.Records || len(moved.Windows) != cut {
		t.Fatalf("destination snapshot: status %d, %d records / %d windows", status, moved.Len(), len(moved.Windows))
	}

	adv2 := streamWindows(t, hsB.URL, tenant, log, cut, len(log.Windows), nil)
	got := append(append([]byte(nil), adv1...), adv2...)
	if !bytes.Equal(got, want) {
		t.Errorf("migrated advice stream diverged from offline replay:\ngot:  %d bytes\nwant: %d bytes", len(got), len(want))
	}
}

// TestExportRoundTripsOpenWindow pins the snapshot codec: closed windows
// and the open (un-ticked) trailing window both survive an export/parse
// round trip exactly.
func TestExportRoundTripsOpenWindow(t *testing.T) {
	log := syntheticLog()
	_, hs := newTestServer(t, Config{Shards: 1, Migratable: true})

	tail := log.WindowSamples(3)[:100]
	const tenant = "export-1"
	streamWindows(t, hs.URL, tenant, log, 0, 3, tail)

	got, status := exportLog(t, hs.URL, tenant)
	if status != http.StatusOK {
		t.Fatalf("export status %d", status)
	}
	wantRecords := log.Windows[2].End + len(tail)
	if got.Len() != wantRecords || len(got.Windows) != 3 {
		t.Fatalf("round trip: %d records / %d windows, want %d / 3", got.Len(), len(got.Windows), wantRecords)
	}
	for i, win := range got.Windows {
		if win != log.Windows[i] {
			t.Errorf("window %d: %+v != %+v", i, win, log.Windows[i])
		}
	}
	for i, sm := range got.Samples[:log.Windows[2].End] {
		if sm != log.Samples[i] {
			t.Fatalf("sample %d: %+v != %+v", i, sm, log.Samples[i])
		}
	}
	for i, sm := range got.Samples[log.Windows[2].End:] {
		if sm != tail[i] {
			t.Fatalf("tail sample %d: %+v != %+v", i, sm, tail[i])
		}
	}
}

// TestImportTruncatedInstallsNothing: a migration stream cut off mid-flight
// must leave the destination with no session at all — never a partially
// replayed one.
func TestImportTruncatedInstallsNothing(t *testing.T) {
	log := syntheticLog()
	srv, hs := newTestServer(t, Config{Shards: 1, Migratable: true})

	var buf bytes.Buffer
	if err := writeMigrationStream(&buf, "trunc-1", log); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()-10]
	resp, err := http.Post(hs.URL+"/v1/import", "application/octet-stream", bytes.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated import status %d, want 400", resp.StatusCode)
	}
	if info := srv.Inspect("trunc-1"); info.Exists {
		t.Fatalf("truncated import installed a session: %+v", info)
	}
	if got := srv.Metrics().sessionsActive.Load(); got != 0 {
		t.Errorf("sessionsActive = %d, want 0", got)
	}
	if got := srv.Metrics().migrateFailed.Load(); got != 1 {
		t.Errorf("migrateFailed = %d, want 1", got)
	}
}

// TestEvictionRacingMigration races TTL eviction against a concurrent
// migration of the same tenant, repeatedly. The invariant (DESIGN §17):
// whichever wins on the owning shard, the tenant is afterwards either
// whole on the destination or fresh everywhere — never half-replayed — and
// the advice a client subsequently sees is byte-identical to the offline
// truth for whatever state survived.
func TestEvictionRacingMigration(t *testing.T) {
	log := syntheticLog()
	cut := 3
	wantFull, err := Replay(log, log.PageSize, detect.Config{}, detect.DefaultPeriodController(), 1)
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 6; round++ {
		tenant := fmt.Sprintf("race-%d", round)
		clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
		srvA, hsA := newTestServer(t, Config{Shards: 1, Migratable: true, SessionTTL: time.Second, now: clk.now})
		_, hsB := newTestServer(t, Config{Shards: 1, Migratable: true})

		streamWindows(t, hsA.URL, tenant, log, 0, cut, nil)
		// The session is now idle past its TTL: the next shard pass evicts
		// it. Race that pass (triggered by Inspect) against the migration's
		// export job — shard-goroutine serialization means one of them wins
		// outright.
		clk.advance(2 * time.Second)
		var wg sync.WaitGroup
		var ack migrateAck
		var status int
		wg.Add(2)
		go func() { defer wg.Done(); ack, status = migrate(t, hsA.URL, tenant, hsB.URL) }()
		go func() { defer wg.Done(); srvA.Inspect(tenant) }()
		wg.Wait()

		if status != http.StatusOK {
			t.Fatalf("round %d: migrate status %d", round, status)
		}
		if _, st := exportLog(t, hsA.URL, tenant); st != http.StatusNotFound {
			t.Fatalf("round %d: source kept the session (status %d)", round, st)
		}
		if ack.Migrated {
			// Migration won: destination must hold the whole prefix.
			moved, st := exportLog(t, hsB.URL, tenant)
			if st != http.StatusOK || len(moved.Windows) != cut || moved.Len() != log.Windows[cut-1].End {
				t.Fatalf("round %d: migrated session not whole: status %d, %d records / %d windows",
					round, st, moved.Len(), len(moved.Windows))
			}
			adv2 := streamWindows(t, hsB.URL, tenant, log, cut, len(log.Windows), nil)
			if !bytes.HasSuffix(wantFull, adv2) {
				t.Errorf("round %d: continuation advice is not the offline suffix", round)
			}
		} else {
			// Eviction won: the tenant must come back completely fresh.
			if _, st := exportLog(t, hsB.URL, tenant); st != http.StatusNotFound {
				t.Fatalf("round %d: no-op migration left state on destination (status %d)", round, st)
			}
			adv := streamWindows(t, hsB.URL, tenant, log, 0, len(log.Windows), nil)
			if !bytes.Equal(adv, wantFull) {
				t.Errorf("round %d: fresh replay after eviction lost parity", round)
			}
		}
		hsA.Close()
		hsB.Close()
	}
}

// TestMigrateWhileDraining pins drain semantics: a draining node refuses
// migration work with 503 (the shard queues are closing; the router treats
// drain as its own ring-level operation instead).
func TestMigrateWhileDraining(t *testing.T) {
	log := syntheticLog()
	srv, hs := newTestServer(t, Config{Shards: 1, Migratable: true})
	streamWindows(t, hs.URL, "drain-1", log, 0, 2, nil)
	srv.BeginDrain()
	if _, status := migrate(t, hs.URL, "drain-1", "http://127.0.0.1:1"); status != http.StatusServiceUnavailable {
		t.Fatalf("migrate while draining: status %d, want 503", status)
	}
}

// TestMigrateNotMigratable: nodes without capture refuse the whole surface
// with 409.
func TestMigrateNotMigratable(t *testing.T) {
	_, hs := newTestServer(t, Config{Shards: 1})
	for _, ep := range []string{"/v1/export?tenant=x", "/v1/migrate", "/v1/import"} {
		var resp *http.Response
		var err error
		if strings.HasPrefix(ep, "/v1/export") {
			resp, err = http.Get(hs.URL + ep)
		} else {
			resp, err = http.Post(hs.URL+ep, "application/json", strings.NewReader("{}"))
		}
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("%s on non-migratable node: status %d, want 409", ep, resp.StatusCode)
		}
	}
}

// TestHealthzJSON pins the healthz contract twice over: plain probes
// still get the historical bare "ok" 200 body, and JSON-accepting probes
// get node identity, schema version and session counts.
func TestHealthzJSON(t *testing.T) {
	log := syntheticLog()
	srv, hs := newTestServer(t, Config{Shards: 2, NodeID: "node-7", Migratable: true})
	streamWindows(t, hs.URL, "hz-1", log, 0, 2, nil)

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("bare healthz: status %d body %q, want 200 %q", resp.StatusCode, body, "ok\n")
	}

	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/healthz", nil)
	req.Header.Set("Accept", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var h NodeHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz JSON: %v", err)
	}
	resp.Body.Close()
	want := NodeHealth{Status: "ok", Node: "node-7", Schema: toolio.SchemaVersion, Shards: 2, Sessions: 1, Migratable: true}
	if h != want {
		t.Errorf("healthz JSON = %+v, want %+v", h, want)
	}

	srv.BeginDrain()
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("draining healthz JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Errorf("draining healthz: status %d %q, want 503 draining", resp.StatusCode, h.Status)
	}
}

// TestRetryAfterJitter pins the 429 backoff jitter bounds: every value in
// [1,3] seconds, and enough spread that a thundering herd of rejected
// clients does not re-arrive in lockstep.
func TestRetryAfterJitter(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v := retryAfterSeconds()
		if v < retryAfterMin || v > retryAfterMax {
			t.Fatalf("retryAfterSeconds() = %d, want within [%d,%d]", v, retryAfterMin, retryAfterMax)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Errorf("200 draws produced %d distinct backoffs — jitter is not jittering", len(seen))
	}
}
