package service

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/raceflag"
	"repro/internal/sim/trace"
	"repro/internal/toolio"
)

// TestBinaryStreamParity is the data plane's correctness gate: the same
// captured trace replayed as binary frames must produce an advice stream
// byte-identical to the offline detector, whatever the frame size — a
// window split across many small frames, or a frame per window.
func TestBinaryStreamParity(t *testing.T) {
	log := syntheticLog()
	_, hs := newTestServer(t, Config{Shards: 2})

	want, err := Replay(log, log.PageSize, detect.Config{}, detect.DefaultPeriodController(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{7, DefaultBatchRecords, toolio.MaxWireBatch} {
		cl := &Client{BaseURL: hs.URL, Tenant: fmt.Sprintf("wire-%d", batch), PageSize: log.PageSize, BatchRecords: batch}
		res, err := cl.Replay(log, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Advice, want) {
			t.Errorf("batch %d: advice diverged from offline replay:\nbinary:  %s\noffline: %s", batch, res.Advice, want)
		}
		if res.Records != 2*log.Len() || res.Ticks != 2*len(log.Windows) {
			t.Errorf("batch %d: sent %d records / %d ticks, want %d / %d", batch, res.Records, res.Ticks, 2*log.Len(), 2*len(log.Windows))
		}
	}
}

// rawStream POSTs body to /v1/stream and returns every response line.
func rawStream(t *testing.T, url, body string) (int, []*toolio.WireMsg) {
	t.Helper()
	resp, err := http.Post(url+"/v1/stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var msgs []*toolio.WireMsg
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), toolio.MaxWireLine)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		m, err := toolio.DecodeWireMsg(sc.Bytes())
		if err != nil {
			t.Fatalf("response line %q: %v", sc.Bytes(), err)
		}
		msgs = append(msgs, m)
	}
	return resp.StatusCode, msgs
}

func helloLine(tenant, wire string) string {
	h := toolio.WireHello{K: toolio.WireHelloKind, Version: toolio.SchemaVersion, Tenant: tenant, PageSize: 4096, Wire: wire}
	return string(toolio.EncodeWire(h))
}

// TestHostileQuadsAnswerWireError sends the hostile NDJSON sample quads
// that once had to be range-checked (tid=2^63 used to become a negative
// thread ID) the way a schema-v2 client would: as lines after a hello. No
// NDJSON data path is left, so each must be refused before any field is
// read, with a non-retryable wire error that says what went wrong.
func TestHostileQuadsAnswerWireError(t *testing.T) {
	srv, hs := newTestServer(t, Config{Shards: 1})
	for name, quad := range map[string]string{
		"tid-2^63":     `[9223372036854775808,65536,8,1]`,
		"width-2^63":   `[0,65536,9223372036854775808,1]`,
		"negative-tid": `[18446744073709551615,65536,8,1]`,
		"write-flag-2": `[0,65536,8,2]`,
	} {
		t.Run(name, func(t *testing.T) {
			status, msgs := rawStream(t, hs.URL, helloLine("hostile-"+name, "")+`{"k":"s","s":[`+quad+`]}`+"\n")
			if status != http.StatusOK {
				t.Fatalf("admission status %d, want 200", status)
			}
			if len(msgs) != 1 || msgs[0].K != toolio.WireErrorKind || !strings.Contains(msgs[0].Error, "NDJSON line") {
				t.Fatalf("hostile quad reply %+v, want one NDJSON-line wire error", msgs)
			}
			if msgs[0].RetryMs != 0 {
				t.Errorf("malformed input marked retryable: %+v", msgs[0])
			}
		})
	}
	// Nothing hostile may have reached a detector session.
	if got := srv.Metrics().records.Load(); got != 0 {
		t.Errorf("detector ingested %d records from hostile batches, want 0", got)
	}
}

// hostileIntervals are tick intervals toolio.CheckTick refuses. An
// "interval <= 0" check lets all three through: NaN compares false, +Inf
// is positive, and 5e-324 is positive but makes the detector's rate
// estimate +Inf, which panics the advice encoder mid-stream.
var hostileIntervals = map[string]float64{
	"nan":       math.NaN(),
	"+inf":      math.Inf(1),
	"subnormal": 5e-324,
}

// hostileTickLog is one window of two threads writing adjacent words of a
// line, closed by a tick of the given interval.
func hostileTickLog(interval float64) *trace.SampleLog {
	log := &trace.SampleLog{PageSize: 4096}
	for i := 0; i < 64; i++ {
		log.TapSample(detect.Sample{TID: i % 2, Addr: 0x10000 + uint64(i%2)*8, Width: 8, Write: true})
	}
	log.TapWindow(interval, 100)
	return log
}

// TestImportHostileTickInstallsNothing: a migration stream whose window
// has a hostile interval gets a 400 from /v1/import, never a handler
// panic, and installs no session.
func TestImportHostileTickInstallsNothing(t *testing.T) {
	srv, hs := newTestServer(t, Config{Shards: 1, Migratable: true})
	for name, interval := range hostileIntervals {
		t.Run(name, func(t *testing.T) {
			var stream bytes.Buffer
			if err := writeMigrationStream(&stream, "import-"+name, hostileTickLog(interval)); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(hs.URL+"/v1/import", "application/octet-stream", &stream)
			if err != nil {
				t.Fatal(err)
			}
			reply, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(reply), "interval") {
				t.Fatalf("import: status %d %q, want 400 about the interval", resp.StatusCode, reply)
			}
			if info := srv.Inspect("import-" + name); info.Exists {
				t.Fatalf("hostile import installed a session: %+v", info)
			}
		})
	}
}

// TestBinaryStreamEdgeCasesOverHTTP round-trips the malformed-frame table
// and the hostile ticks through the real HTTP surface: every case must
// come back as a non-retryable WireError line on a 200 stream (the hello
// was fine), never a hang or a panic.
func TestBinaryStreamEdgeCasesOverHTTP(t *testing.T) {
	_, hs := newTestServer(t, Config{Shards: 1})

	// tickWindow is hostileTickLog's window as frames: samples, then the
	// tick.
	tickWindow := func(interval float64) []byte {
		var buf bytes.Buffer
		bw := toolio.NewBinWriter(&buf)
		var cols toolio.SampleColumns
		if err := writeSampleFrames(bw, &cols, hostileTickLog(interval).Samples, DefaultBatchRecords); err != nil {
			t.Fatal(err)
		}
		if err := bw.WriteTick(toolio.WireTick{K: toolio.WireTickKind, IntervalSec: interval, Period: 100}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	goodFrame := func() []byte {
		var buf bytes.Buffer
		bw := toolio.NewBinWriter(&buf)
		var cols toolio.SampleColumns
		cols.Append(0, 0x10000, 8, true)
		if err := bw.WriteSamples(&cols); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	for _, tc := range []struct {
		name  string
		body  []byte
		want  string
		clean bool // true: expect a normal end, not an error line
	}{
		{"garbage-after-hello", []byte("not a frame"), "magic", false},
		{"truncated-frame", goodFrame[:len(goodFrame)-2], "truncated", false},
		{"future-frame-version", func() []byte {
			b := append([]byte(nil), goodFrame...)
			b[2] = toolio.WireBinVersion + 1
			return b
		}(), "version", false},
		{"hostile-tid-column", func() []byte {
			b := append([]byte(nil), goodFrame...)
			// Overwrite the single tid column entry with 2^31.
			binary.LittleEndian.PutUint32(b[8+4:], 1<<31)
			return b
		}(), "tid", false},
		{"tick-nan", tickWindow(hostileIntervals["nan"]), "interval", false},
		{"tick-inf", tickWindow(hostileIntervals["+inf"]), "interval", false},
		{"tick-subnormal", tickWindow(hostileIntervals["subnormal"]), "interval", false},
		{"clean-eof", goodFrame, "", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := helloLine("edge-"+tc.name, toolio.WireFormatBinary) + string(tc.body)
			status, msgs := rawStream(t, hs.URL, body)
			if status != http.StatusOK {
				t.Fatalf("admission status %d, want 200", status)
			}
			if tc.clean {
				if len(msgs) != 0 {
					t.Fatalf("clean stream answered %+v", msgs)
				}
				return
			}
			if len(msgs) != 1 || msgs[0].K != toolio.WireErrorKind || !strings.Contains(msgs[0].Error, tc.want) || msgs[0].RetryMs != 0 {
				t.Fatalf("reply %+v, want a non-retryable wire error mentioning %q", msgs, tc.want)
			}
		})
	}
}

// TestInspectSaturatedShardReturnsZero pins the Inspect deadlock fix: a
// full queue on a stalled shard plus a concurrent Drain used to deadlock
// (Inspect blocked on the queue send while holding the gate's read lock,
// Drain blocked on the write lock). Inspect must now give up after the
// bounded enqueue wait and report the zero SessionInfo.
func TestInspectSaturatedShardReturnsZero(t *testing.T) {
	srv := New(Config{Shards: 1, QueueDepth: 1, EnqueueWait: 30 * time.Millisecond})

	stall := make(chan struct{})
	sh := srv.shards[0]
	sh.jobs <- job{stall: stall}
	sh.jobs <- job{stall: stall}
	for len(sh.jobs) < 1 {
		time.Sleep(time.Millisecond)
	}

	inspected := make(chan SessionInfo, 1)
	go func() { inspected <- srv.Inspect("wedged-tenant") }()

	drained := make(chan struct{})
	go func() {
		srv.Drain()
		close(drained)
	}()

	select {
	case info := <-inspected:
		if info.Exists {
			t.Errorf("saturated shard reported a session: %+v", info)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Inspect deadlocked against the saturated shard + concurrent drain")
	}

	close(stall)
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never completed after the stall released")
	}
}

// TestDrainClosesPromptlyUnderSaturatedEnqueues pins the enqueue gate fix:
// backpressured enqueues must not hold the gate's read lock across the
// EnqueueWait timer, so a concurrent drain flips the server closed in
// milliseconds — not after the full wait — and the waiting enqueues fail
// fast instead of wedging every other reader behind the pending writer.
func TestDrainClosesPromptlyUnderSaturatedEnqueues(t *testing.T) {
	const wait = 2 * time.Second
	srv := New(Config{Shards: 1, QueueDepth: 1, EnqueueWait: wait})

	stall := make(chan struct{})
	sh := srv.shards[0]
	sh.jobs <- job{stall: stall}
	sh.jobs <- job{stall: stall}
	for len(sh.jobs) < 1 {
		time.Sleep(time.Millisecond)
	}

	// Saturated enqueues sitting in the backpressure wait.
	results := make(chan bool, 4)
	for i := 0; i < 4; i++ {
		go func() {
			results <- srv.enqueue(sh, job{tenant: "slow", pageSize: 4096, samples: []detect.Sample{{Addr: 0x10000, Width: 8}}})
		}()
	}
	time.Sleep(50 * time.Millisecond)

	drained := make(chan struct{})
	start := time.Now()
	go func() {
		srv.Drain()
		close(drained)
	}()

	// The observable bound: the closed flag must flip well inside the
	// enqueue wait (the old code held read locks across the whole timer,
	// so the drain's write lock — and with it every later reader — queued
	// for up to the full wait).
	for {
		if _, closed := srv.tryEnqueue(sh, job{tenant: "probe"}); closed {
			break
		}
		if time.Since(start) > wait/2 {
			t.Fatalf("server not closed %v after Drain began (EnqueueWait %v)", time.Since(start), wait)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Every waiting enqueue must give up promptly once closed.
	for i := 0; i < 4; i++ {
		select {
		case ok := <-results:
			if ok {
				t.Error("enqueue succeeded on a draining server")
			}
		case <-time.After(wait / 2):
			t.Fatal("saturated enqueue still blocked after the server closed")
		}
	}

	close(stall)
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never completed after the stall released")
	}
}

// TestSmallPageSizeHelloRejected pins the latent shard panic: a hello
// advertising a power-of-two page size below 4096 used to pass validation
// and crash the owning shard in the detector's chunk table on the first
// sample. It must be a 400 now.
func TestSmallPageSizeHelloRejected(t *testing.T) {
	_, hs := newTestServer(t, Config{Shards: 1})
	var frame bytes.Buffer
	var cols toolio.SampleColumns
	cols.Append(0, 0x10000, 8, true)
	if err := toolio.NewBinWriter(&frame).WriteSamples(&cols); err != nil {
		t.Fatal(err)
	}
	for _, ps := range []int{1, 64, 2048} {
		h := toolio.WireHello{K: toolio.WireHelloKind, Version: toolio.SchemaVersion, Tenant: "tiny", PageSize: ps}
		body := string(toolio.EncodeWire(h)) + frame.String()
		resp, err := http.Post(hs.URL+"/v1/stream", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("page_size %d: status %d, want 400", ps, resp.StatusCode)
		}
	}
}

// TestMetricsWireCounters checks the one wire counter left: every frame a
// replay sends (its samples frames plus one tick per window) is counted
// once, and the encoding-labelled series are gone.
func TestMetricsWireCounters(t *testing.T) {
	log := syntheticLog()
	_, hs := newTestServer(t, Config{Shards: 1})
	if _, err := (&Client{BaseURL: hs.URL, Tenant: "m-bin", PageSize: log.PageSize}).Replay(log, 1); err != nil {
		t.Fatal(err)
	}
	frames := 0
	for i := range log.Windows {
		frames += (len(log.WindowSamples(i))+DefaultBatchRecords-1)/DefaultBatchRecords + 1
	}
	body := scrape(t, hs.URL)
	if want := fmt.Sprintf("tmid_wire_frames_total %d\n", frames); !strings.Contains(body, want) {
		t.Errorf("metrics exposition missing %q", want)
	}
	for _, gone := range []string{"tmid_wire_streams_total", "tmid_wire_records_total", "encoding="} {
		if strings.Contains(body, gone) {
			t.Errorf("metrics exposition still renders %q", gone)
		}
	}
}

// scrape GETs /metrics and returns the body.
func scrape(t *testing.T, url string) string {
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
	return string(body)
}

// TestMetricsScrapeIsReadOnly: reading /metrics must not change what the
// next scraper sees. On an idle server (fake clock standing still) two
// back-to-back scrapes render identical bodies; a gauge that reset a
// baseline per scrape, as tmid_ingest_records_per_sec did, shows here as
// a rate on the first scrape and 0 on the second.
func TestMetricsScrapeIsReadOnly(t *testing.T) {
	log := syntheticLog()
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	_, hs := newTestServer(t, Config{Shards: 1, now: clk.now})
	if _, err := (&Client{BaseURL: hs.URL, Tenant: "scrape-1", PageSize: log.PageSize}).Replay(log, 1); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Second)
	first, second := scrape(t, hs.URL), scrape(t, hs.URL)
	if first != second {
		t.Errorf("two scrapes of an idle server differ:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}

// TestBinaryIngestSteadyStateDoesNotAllocate is the service-side
// AllocsPerRun gate on the zero-copy ingest path: frame decode (reader
// buffers), column conversion (recycled per-stream buffers) and the
// shard's recycle-on-consume handoff must all stay off the heap at steady
// state.
func TestBinaryIngestSteadyStateDoesNotAllocate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is meaningless under -race")
	}
	var enc bytes.Buffer
	bw := toolio.NewBinWriter(&enc)
	var cols toolio.SampleColumns
	for i := 0; i < 1024; i++ {
		cols.Append(uint32(i%4), 0x10000+uint64(i%128)*8, 8, i%2 == 0)
	}
	for i := 0; i < 8; i++ {
		if err := bw.WriteSamples(&cols); err != nil {
			t.Fatal(err)
		}
	}
	frames := enc.Bytes()

	st := &stream{tenant: "alloc", pageSize: 4096, free: make(chan []detect.Sample, recycleDepth)}
	r := bytes.NewReader(frames)
	rd := toolio.NewBinReader(r)
	ingest := func() {
		r.Reset(frames)
		rd.Reset(r)
		for {
			fr, err := rd.ReadFrame()
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			samples := st.convert(fr.Samples)
			// The shard's half of the handoff: consume and recycle.
			j := job{samples: samples, recycle: st.free}
			j.release()
		}
	}
	ingest() // warm the reader buffers and the free list
	if allocs := testing.AllocsPerRun(100, ingest); allocs > 0 {
		t.Errorf("steady-state binary ingest allocates %.1f times per stream, want 0", allocs)
	}
}
