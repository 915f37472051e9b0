package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/toolio"
)

// postStream POSTs a hello plus body to base's /v1/stream and returns the
// status and every reply line decoded.
func postStream(t *testing.T, base, tenant string, body []byte) (int, []*toolio.WireMsg) {
	t.Helper()
	hello := toolio.EncodeWire(toolio.WireHello{K: toolio.WireHelloKind, Version: toolio.SchemaVersion, Tenant: tenant, PageSize: 4096, Wire: toolio.WireFormatBinary})
	resp, err := http.Post(base+"/v1/stream", "application/x-ndjson", bytes.NewReader(append(hello, body...)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var msgs []*toolio.WireMsg
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		m, err := toolio.DecodeWireMsg(sc.Bytes())
		if err != nil {
			t.Fatalf("reply line %q: %v", sc.Bytes(), err)
		}
		msgs = append(msgs, m)
	}
	return resp.StatusCode, msgs
}

// TestRelayMalformedBodyMatchesDirect: a malformed client body gets the
// same wire error through the router as from a node directly — the same
// text and the same non-retryable hint. Framing errors are caught by the
// relay's own frame check; a bad column is caught by the node and relayed
// verbatim at the next tick, as is a tick whose interval the node refuses.
func TestRelayMalformedBodyMatchesDirect(t *testing.T) {
	lc := newLocal(t, 1, Config{ProbeInterval: -1})

	var cols toolio.SampleColumns
	cols.Append(0, 0x10000, 8, true)
	tick := toolio.WireTick{K: toolio.WireTickKind, Seq: 0, IntervalSec: 0.1, Period: 100}
	good := windowFrames(t, &cols, tick)
	samplesLen := len(good) - (8 + 24)
	hostileTick := func(interval float64) toolio.WireTick {
		return toolio.WireTick{K: toolio.WireTickKind, IntervalSec: interval, Period: 100}
	}
	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mut(b)
		return b
	}

	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"truncated-header", good[:5], "truncated frame header"},
		{"truncated-payload", good[:samplesLen-2], "truncated frame payload"},
		{"oversized-payload", corrupt(func(b []byte) {
			binary.LittleEndian.PutUint32(b[4:], toolio.MaxWireLine+1)
		}), "exceeds cap"},
		{"ndjson-line", []byte(`{"k":"s","s":[[0,65536,8,1]]}` + "\n"), "NDJSON line"},
		{"bad-magic", corrupt(func(b []byte) { b[0] = 'X' }), "bad frame magic"},
		{"future-version", corrupt(func(b []byte) { b[2] = toolio.WireBinVersion + 1 }), "frame version"},
		{"unknown-kind", corrupt(func(b []byte) { b[3] = 'z' }), "unknown frame kind"},
		{"hostile-tid-column", corrupt(func(b []byte) {
			binary.LittleEndian.PutUint32(b[8+4:], 1<<31)
		}), "tid out of range"},
		{"tick-nan", windowFrames(t, &cols, hostileTick(math.NaN())), "interval"},
		{"tick-inf", windowFrames(t, &cols, hostileTick(math.Inf(1))), "interval"},
		{"tick-subnormal", windowFrames(t, &cols, hostileTick(5e-324)), "interval"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var replies [2]*toolio.WireMsg
			for i, base := range []string{lc.NodeURLs()[0], lc.RouterURL} {
				status, msgs := postStream(t, base, fmt.Sprintf("bad-%s-%d", tc.name, i), tc.body)
				if status != http.StatusOK {
					t.Fatalf("%s: admission status %d, want 200", base, status)
				}
				if len(msgs) != 1 || msgs[0].K != toolio.WireErrorKind || !strings.Contains(msgs[0].Error, tc.want) {
					t.Fatalf("%s: reply %+v, want one wire error mentioning %q", base, msgs, tc.want)
				}
				replies[i] = msgs[0]
			}
			direct, routed := replies[0], replies[1]
			if routed.Error != direct.Error || routed.RetryMs != direct.RetryMs || routed.RetryMs != 0 {
				t.Errorf("routed error %+v, direct %+v: want the same text and retry_ms 0", routed, direct)
			}
		})
	}
}

// TestNDJSONHelloRefusedThroughRouter: the router applies the same hello
// check as a node, so a hello asking for NDJSON samples is a 400 there too.
func TestNDJSONHelloRefusedThroughRouter(t *testing.T) {
	lc := newLocal(t, 1, Config{ProbeInterval: -1})
	body := `{"k":"h","v":2,"tenant":"old-client","wire":"ndjson"}` + "\n"
	resp, err := http.Post(lc.RouterURL+"/v1/stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var msg bytes.Buffer
	msg.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.String(), "schema v3") {
		t.Errorf("ndjson hello through the router: %d %q, want 400 naming schema v3", resp.StatusCode, msg.String())
	}
}

// TestMigrationStatsExactQuantiles: p50/p99 are exact nearest-rank values
// over successful migrations only, whatever noop and failed attempts took,
// and the window keeps only the most recent successes.
func TestMigrationStatsExactQuantiles(t *testing.T) {
	rt := &Router{metrics: newRouterMetrics()}
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	// 100 successes of 1..100 ms, shuffled by a fixed stride, interleaved
	// with slow noop and failed attempts that must not count.
	for i := 0; i < 100; i++ {
		rt.metrics.migrationDone("ok", 10, ms(float64((i*37)%100+1)))
		rt.metrics.migrationDone("noop", 0, ms(5000))
		if i%10 == 0 {
			rt.metrics.migrationDone("failed", 0, ms(9000))
		}
	}
	got := rt.MigrationStats()
	if got.OK != 100 || got.Noop != 100 || got.Failed != 10 || got.Records != 1000 {
		t.Fatalf("counters %+v", got)
	}
	if got.P50ms != 50 || got.P99ms != 99 {
		t.Errorf("p50 %v p99 %v, want exactly 50 and 99", got.P50ms, got.P99ms)
	}

	// A full window of 2 ms successes pushes every earlier one out.
	for i := 0; i < migrationWindow; i++ {
		rt.metrics.migrationDone("ok", 0, ms(2))
	}
	if got := rt.MigrationStats(); got.P50ms != 2 || got.P99ms != 2 {
		t.Errorf("after a full window of 2 ms: p50 %v p99 %v, want 2 and 2", got.P50ms, got.P99ms)
	}
	if empty := (&Router{metrics: newRouterMetrics()}).MigrationStats(); empty.P50ms != 0 || empty.P99ms != 0 {
		t.Errorf("no migrations: %+v, want zero quantiles", empty)
	}
}
