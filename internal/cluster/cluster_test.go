package cluster

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
	"repro/internal/service"
	"repro/internal/sim/trace"
	"repro/internal/toolio"
)

// syntheticLog is the same shape the service tests use: two threads false
// sharing one line plus a truly shared word, across several windows.
func syntheticLog() *trace.SampleLog {
	log := &trace.SampleLog{PageSize: 4096}
	for w := 0; w < 6; w++ {
		for i := 0; i < 400; i++ {
			tid := i % 2
			log.TapSample(detect.Sample{TID: tid, Addr: 0x10000 + uint64(tid)*8, Width: 8, Write: tid == 0})
			if i%3 == 0 {
				log.TapSample(detect.Sample{TID: tid, Addr: 0x20000, Width: 8, Write: true})
			}
		}
		log.TapWindow(0.0001, 100)
	}
	return log
}

func offlineTruth(t *testing.T, log *trace.SampleLog, repeat int) []byte {
	t.Helper()
	want, err := service.Replay(log, log.PageSize, detect.Config{}, detect.DefaultPeriodController(), repeat)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func newLocal(t *testing.T, n int, rcfg Config) *Local {
	t.Helper()
	lc, err := NewLocal(n, service.Config{Shards: 2}, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc
}

// TestClusterRelayParity: a client fleet streaming through the router gets
// byte-identical advice.
func TestClusterRelayParity(t *testing.T) {
	log := syntheticLog()
	want := offlineTruth(t, log, 2)
	lc := newLocal(t, 2, Config{ProbeInterval: -1})

	var wg sync.WaitGroup
	errs := make([]error, 6)
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &service.Client{BaseURL: lc.RouterURL, Tenant: fmt.Sprintf("par-%d", c), PageSize: log.PageSize}
			res, err := cl.Replay(log, 2)
			if err != nil {
				errs[c] = err
				return
			}
			if !bytes.Equal(res.Advice, want) {
				errs[c] = fmt.Errorf("advice diverged (%d vs %d bytes)", len(res.Advice), len(want))
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", c, err)
		}
	}
	if open := lc.Router.metrics.streamsOpen.Load(); open != 0 {
		t.Errorf("streamsOpen = %d after all fleets finished", open)
	}
}

// streamConn is an interactively driven stream through the router, so
// tests control exactly where window boundaries fall relative to ring
// changes.
type streamConn struct {
	pw   *io.PipeWriter
	resp *http.Response
	br   *bufio.Reader
}

func openStream(t *testing.T, base, tenant string, pageSize int) *streamConn {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	type doRes struct {
		resp *http.Response
		err  error
	}
	ch := make(chan doRes, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		ch <- doRes{resp, err}
	}()
	hello := toolio.WireHello{K: toolio.WireHelloKind, Version: toolio.SchemaVersion, Tenant: tenant, PageSize: pageSize, Wire: toolio.WireFormatBinary}
	go pw.Write(toolio.EncodeWire(hello))
	res := <-ch
	if res.err != nil {
		t.Fatalf("open stream: %v", res.err)
	}
	if res.resp.StatusCode != http.StatusOK {
		t.Fatalf("open stream: %s", res.resp.Status)
	}
	return &streamConn{pw: pw, resp: res.resp, br: bufio.NewReader(res.resp.Body)}
}

// sendWindow streams window i's samples and tick, and returns the reply
// line (advice or error) including its newline.
func (sc *streamConn) sendWindow(t *testing.T, log *trace.SampleLog, i int) []byte {
	t.Helper()
	var cols toolio.SampleColumns
	for _, sm := range log.WindowSamples(i) {
		cols.Append(uint32(sm.TID), sm.Addr, uint16(sm.Width), sm.Write)
	}
	w := log.Windows[i]
	buf := windowFrames(t, &cols, toolio.WireTick{K: toolio.WireTickKind, Seq: i, IntervalSec: w.IntervalSec, Period: w.Period})
	if _, err := sc.pw.Write(buf); err != nil {
		t.Fatalf("window %d write: %v", i, err)
	}
	line, err := sc.br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("window %d reply: %v", i, err)
	}
	return line
}

// windowFrames encodes one samples frame and one tick frame.
func windowFrames(t *testing.T, cols *toolio.SampleColumns, tick toolio.WireTick) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := toolio.NewBinWriter(&buf)
	if err := bw.WriteSamples(cols); err != nil {
		t.Fatal(err)
	}
	if err := bw.WriteTick(tick); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func (sc *streamConn) close() {
	sc.pw.Close()
	io.Copy(io.Discard, sc.resp.Body)
	sc.resp.Body.Close()
}

// TestLiveMigrationMidStream is the tentpole's contract end to end: a
// stream starts on a one-node ring, a node is added and the first drained
// mid-stream, and the session live-migrates at the next clean boundary —
// with the full advice stream byte-identical to the offline replay.
func TestLiveMigrationMidStream(t *testing.T) {
	log := syntheticLog()
	want := offlineTruth(t, log, 1)
	lc := newLocal(t, 1, Config{ProbeInterval: -1})

	const tenant = "live-1"
	sc := openStream(t, lc.RouterURL, tenant, log.PageSize)
	defer sc.close()

	var advice bytes.Buffer
	advice.Write(sc.sendWindow(t, log, 0))

	// Ring change under the live stream: new node in, original node
	// drained. The tenant's only possible owner is now the new node.
	added, err := lc.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	original := lc.Drain(0)

	for i := 1; i < len(log.Windows); i++ {
		line := sc.sendWindow(t, log, i)
		if m, err := toolio.DecodeWireMsg(bytes.TrimRight(line, "\n")); err != nil || m.K != toolio.WireAdviceKind {
			t.Fatalf("window %d: reply not advice: %s", i, line)
		}
		advice.Write(line)
	}
	if !bytes.Equal(advice.Bytes(), want) {
		t.Errorf("advice across the migration diverged from offline replay:\ngot %d bytes, want %d", advice.Len(), len(want))
	}

	ms := lc.Router.MigrationStats()
	if ms.OK != 1 || ms.Failed != 0 {
		t.Errorf("migrations = %+v, want exactly one ok", ms)
	}
	if ms.Records != uint64(log.Windows[0].End) {
		t.Errorf("migrated %d records, want window 0's %d", ms.Records, log.Windows[0].End)
	}
	// The session lives on the new node now, and only there.
	for url, wantStatus := range map[string]int{added: http.StatusOK, original: http.StatusNotFound} {
		resp, err := http.Get(url + "/v1/export?tenant=" + tenant)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Errorf("export on %s: status %d, want %d", url, resp.StatusCode, wantStatus)
		}
	}
}

// TestKillMidStreamIsRetryable: killing the owning node mid-stream answers
// the client with a retryable wire error (state is gone — resuming would
// corrupt advice), and a fresh retry of the same tenant converges on full
// parity on a surviving node.
func TestKillMidStreamIsRetryable(t *testing.T) {
	log := syntheticLog()
	want := offlineTruth(t, log, 1)
	lc := newLocal(t, 2, Config{ProbeInterval: 50 * time.Millisecond, FailAfter: 2})

	const tenant = "kill-1"
	owner, ok := lc.Router.pickOwner(tenant)
	if !ok {
		t.Fatal("no owner")
	}
	ownerIdx := -1
	for i, url := range lc.NodeURLs() {
		if url == owner {
			ownerIdx = i
		}
	}

	sc := openStream(t, lc.RouterURL, tenant, log.PageSize)
	defer sc.close()
	sc.sendWindow(t, log, 0)

	lc.Kill(ownerIdx)

	// The next round trip must come back as a retryable wire error — the
	// relay may need one write to observe the severed leg, so allow the
	// reply to take a moment but never be wrong.
	var cols toolio.SampleColumns
	cols.Append(0, 0x10000, 8, true)
	w := log.Windows[1]
	sc.pw.Write(windowFrames(t, &cols, toolio.WireTick{K: toolio.WireTickKind, Seq: 1, IntervalSec: w.IntervalSec, Period: w.Period}))
	line, err := sc.br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("expected a wire error line, got transport error %v", err)
	}
	m, err := toolio.DecodeWireMsg(bytes.TrimRight(line, "\n"))
	if err != nil || m.K != toolio.WireErrorKind || m.RetryMs <= 0 {
		t.Fatalf("reply after kill = %s, want retryable wire error", line)
	}

	// Retry fresh (same tenant, new stream): once the prober pulls the dead
	// node, the ring places it on the survivor and parity holds end to end.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cl := &service.Client{BaseURL: lc.RouterURL, Tenant: tenant, PageSize: log.PageSize}
		res, err := cl.Replay(log, 1)
		if err == nil {
			if !bytes.Equal(res.Advice, want) {
				t.Fatalf("post-kill replay lost parity (%d vs %d bytes)", len(res.Advice), len(want))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retry never succeeded after node kill: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestRouterAdminAndMetrics covers the operator surface: ring snapshots,
// membership edits over HTTP, config reload, and the aggregated metrics
// exposition.
func TestRouterAdminAndMetrics(t *testing.T) {
	log := syntheticLog()
	lc := newLocal(t, 2, Config{ProbeInterval: -1})

	cl := &service.Client{BaseURL: lc.RouterURL, Tenant: "adm-1", PageSize: log.PageSize}
	if _, err := cl.Replay(log, 1); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(lc.RouterURL + "/admin/ring")
	if err != nil {
		t.Fatal(err)
	}
	var info RingInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(info.Nodes) != 2 || !info.Nodes[0].Alive || !info.Nodes[1].Alive {
		t.Fatalf("ring info %+v, want 2 alive nodes", info)
	}

	resp, err = http.Get(lc.RouterURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"tmirouter_streams_total 1",
		"tmirouter_ticks_relayed_total " + fmt.Sprint(len(log.Windows)),
		"tmirouter_ring_generation",
		"tmirouter_migration_ms_bucket",
		`tmid_sessions_active{node="` + lc.NodeURLs()[0] + `"}`, // aggregated node scrape
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Drain via admin API bumps the generation; reload replaces membership.
	gen := lc.Router.Generation()
	resp, err = http.Post(lc.RouterURL+"/admin/drain?node="+lc.NodeURLs()[1], "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if lc.Router.Generation() != gen+1 {
		t.Errorf("drain did not bump generation (%d -> %d)", gen, lc.Router.Generation())
	}

	nodes, _ := json.Marshal([]string{lc.NodeURLs()[0]})
	resp, err = http.Post(lc.RouterURL+"/admin/reload", "application/json", bytes.NewReader(nodes))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := lc.Router.Ring(); len(got.Nodes) != 1 || got.Nodes[0].URL != lc.NodeURLs()[0] {
		t.Errorf("reload left membership %+v", got.Nodes)
	}

	// Reloading to an empty list leaves the router unhealthy.
	resp, err = http.Post(lc.RouterURL+"/admin/reload", "application/json", strings.NewReader("[]"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err = http.Get(lc.RouterURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz with no nodes: status %d, want 503", resp.StatusCode)
	}
}

// TestProberDetectsDeathAndRecovery: the /healthz prober pulls a dead node
// from the ring after FailAfter misses and learns node metadata from live
// ones.
func TestProberDetectsDeathAndRecovery(t *testing.T) {
	lc := newLocal(t, 2, Config{ProbeInterval: 30 * time.Millisecond, FailAfter: 2})

	deadline := time.Now().Add(5 * time.Second)
	for {
		info := lc.Router.Ring()
		if len(info.Nodes) == 2 && info.Nodes[0].NodeID != "" && info.Nodes[1].NodeID != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prober never learned node metadata: %+v", info)
		}
		time.Sleep(20 * time.Millisecond)
	}

	dead := lc.Kill(0)
	for {
		alive := 0
		for _, n := range lc.Router.Ring().Nodes {
			if n.Alive {
				alive++
			}
		}
		if alive == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prober never detected the death of %s", dead)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
