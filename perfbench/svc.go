package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/detect"
	"repro/internal/service"
	"repro/internal/sim/trace"
	"repro/internal/toolio"
)

const (
	// slot is each stream's window period in the open-loop phase: 500
	// windows/s per stream, about 260k records/s per stream on the
	// histogramfs capture.
	slot = 2 * time.Millisecond
	// sessionWindows bounds one open-loop session; the histogramfs capture's
	// 44 windows make four sessions.
	sessionWindows = 11
	// batchRecords is the samples-frame size, as service.Client sends.
	batchRecords = service.DefaultBatchRecords
	// streams is the number of concurrent client streams (at most nproc on
	// the reference host).
	streams = 2
	// adviceP99LimitMS is the fixed latency limit the open-loop p99 is
	// reported against.
	adviceP99LimitMS = 25.0
)

// chunk is one session's input: a sample log pre-encoded as binary frames,
// one entry per window (its samples frames then its tick frame), with the
// advice service.Replay computes for it.
type chunk struct {
	pageSize     int
	frames       [][]byte
	frameRecords []int // records in each window
	records      int
	want         []byte
}

// newChunk encodes log (repeated repeat times, tick sequence continuing
// across repeats) and computes its expected advice.
func newChunk(log *trace.SampleLog, repeat int) (*chunk, error) {
	want, err := service.Replay(log, log.PageSize, detect.DefaultConfig(), detect.DefaultPeriodController(), repeat)
	if err != nil {
		return nil, err
	}
	ch := &chunk{pageSize: log.PageSize, want: want}
	var cols toolio.SampleColumns
	seq := 0
	for r := 0; r < repeat; r++ {
		for i := range log.Windows {
			var buf bytes.Buffer
			if err := encodeWindow(toolio.NewBinWriter(&buf), &cols, log, i, seq); err != nil {
				return nil, err
			}
			n := len(log.WindowSamples(i))
			ch.frames = append(ch.frames, buf.Bytes())
			ch.frameRecords = append(ch.frameRecords, n)
			ch.records += n
			seq++
		}
	}
	return ch, nil
}

// encodeWindow writes window i of log as samples frames of at most
// batchRecords records each, then its tick frame numbered seq.
func encodeWindow(enc *toolio.BinWriter, cols *toolio.SampleColumns, log *trace.SampleLog, i, seq int) error {
	samples := log.WindowSamples(i)
	for lo := 0; lo < len(samples); lo += batchRecords {
		hi := min(lo+batchRecords, len(samples))
		cols.Reset()
		for _, s := range samples[lo:hi] {
			cols.Append(uint32(s.TID), s.Addr, uint16(s.Width), s.Write)
		}
		if err := enc.WriteSamples(cols); err != nil {
			return err
		}
	}
	w := log.Windows[i]
	return enc.WriteTick(toolio.WireTick{K: toolio.WireTickKind, Seq: seq, IntervalSec: w.IntervalSec, Period: w.Period})
}

// splitLog cuts log into sub-logs of at most n windows, dropping pieces
// without samples (a session with no records has nothing to migrate).
func splitLog(log *trace.SampleLog, n int) []*trace.SampleLog {
	var out []*trace.SampleLog
	for w0 := 0; w0 < len(log.Windows); w0 += n {
		w1 := min(w0+n, len(log.Windows))
		lo := 0
		if w0 > 0 {
			lo = log.Windows[w0-1].End
		}
		hi := log.Windows[w1-1].End
		if hi == lo {
			continue
		}
		sub := &trace.SampleLog{PageSize: log.PageSize, Samples: log.Samples[lo:hi]}
		for _, w := range log.Windows[w0:w1] {
			w.End -= lo
			sub.Windows = append(sub.Windows, w)
		}
		out = append(out, sub)
	}
	return out
}

// serviceInputs cuts the capture into open-loop session chunks, and
// builds the saturation chunk: the whole capture repeated to about 200k
// records. Long sessions keep per-request overhead out of the ingest rate,
// and keep down the number of sessions the saturated nodes hold until
// their idle TTL.
func serviceInputs(log *trace.SampleLog) (open []*chunk, sat *chunk, err error) {
	for _, sub := range splitLog(log, sessionWindows) {
		ch, err := newChunk(sub, 1)
		if err != nil {
			return nil, nil, err
		}
		open = append(open, ch)
	}
	if len(open) == 0 {
		return nil, nil, fmt.Errorf("no captured samples to stream")
	}
	sat, err = newChunk(log, max(1, (200_000+log.Len()-1)/log.Len()))
	return open, sat, err
}

// sessionOut is what one stream session measured.
type sessionOut struct {
	latMS     []float64   // per tick, from its due time to its advice line (paced only)
	latAt     []time.Time // when each tick's advice line arrived
	blockMS   []float64   // per window, time spent in Write+Flush
	lateMaxMS float64     // how late the generator started a window, at most
	records   int
}

// streamSession sends ch as one /v1/stream request to base under tenant.
// With pace > 0 window i is due at start+i*pace (open loop); with pace 0
// windows are pipelined as fast as backpressure allows. The advice must
// equal ch.want byte for byte.
func streamSession(hc *http.Client, base, tenant string, ch *chunk, pace time.Duration) (*sessionOut, error) {
	pr, pw := io.Pipe()
	start := time.Now()
	due := func(i int) time.Time { return start.Add(time.Duration(i) * pace) }
	// sent[i] is when window i's latency starts; the writer sets it before
	// writing the window and the reader reads it after the window's advice
	// arrives, which the request and response exchange orders. The
	// writer's other results are its own until writeDone closes.
	sent := make([]time.Time, len(ch.frames))
	var (
		werr      error
		blockMS   []float64
		lateMaxMS float64
	)
	writeDone := make(chan struct{})
	go func() {
		defer close(writeDone)
		bw := bufio.NewWriterSize(pw, 64<<10)
		werr = func() error {
			hello := toolio.WireHello{K: toolio.WireHelloKind, Version: toolio.SchemaVersion,
				Tenant: tenant, PageSize: ch.pageSize, Wire: toolio.WireFormatBinary}
			if _, err := bw.Write(toolio.EncodeWire(hello)); err != nil {
				return err
			}
			for i, fr := range ch.frames {
				if pace > 0 {
					// A window is timed from when it was due, unless the
					// generator's own timer woke after that: the Go timer
					// wakes through the netpoller, rounded to whole
					// milliseconds, and that overshoot is not the service's.
					// A window due while the previous write was still
					// blocked is timed from its due time.
					sent[i] = due(i)
					if d := time.Until(due(i)); d > 0 {
						time.Sleep(d)
						sent[i] = time.Now()
					}
					lateMaxMS = max(lateMaxMS, ms(time.Since(due(i))))
				}
				t0 := time.Now()
				if _, err := bw.Write(fr); err != nil {
					return err
				}
				if err := bw.Flush(); err != nil {
					return err
				}
				blockMS = append(blockMS, ms(time.Since(t0)))
			}
			return nil
		}()
		pw.CloseWithError(werr)
	}()
	// Whatever happens below, unblock the writer and wait for it.
	defer func() {
		pr.CloseWithError(io.ErrClosedPipe)
		<-writeDone
	}()

	req, err := http.NewRequest(http.MethodPost, base+"/v1/stream", pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("stream %s: %w", tenant, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("stream %s rejected: %s: %s", tenant, resp.Status, bytes.TrimSpace(body))
	}
	var advice []byte
	var latMS []float64
	var latAt []time.Time
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), toolio.MaxWireLine)
	for seq := 0; sc.Scan(); seq++ {
		now := time.Now()
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte(`{"k":"a"`)) {
			msg, derr := toolio.DecodeWireMsg(line)
			if derr == nil && msg.K == toolio.WireErrorKind {
				return nil, fmt.Errorf("stream %s aborted: %s", tenant, msg.Error)
			}
			return nil, fmt.Errorf("stream %s: unexpected reply %.80q", tenant, line)
		}
		if seq >= len(ch.frames) {
			return nil, fmt.Errorf("stream %s: more advice lines than ticks sent", tenant)
		}
		if pace > 0 {
			latMS = append(latMS, ms(now.Sub(sent[seq])))
		}
		latAt = append(latAt, now)
		advice = append(advice, line...)
		advice = append(advice, '\n')
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream %s: %w", tenant, err)
	}
	<-writeDone
	if werr != nil {
		return nil, fmt.Errorf("stream %s write: %w", tenant, werr)
	}
	if !bytes.Equal(advice, ch.want) {
		return nil, fmt.Errorf("stream %s: advice differs from service.Replay (%d vs %d bytes)", tenant, len(advice), len(ch.want))
	}
	return &sessionOut{latMS: latMS, latAt: latAt, blockMS: blockMS, lateMaxMS: lateMaxMS, records: ch.records}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// svcEnv is the service tier under test: two migratable tmid nodes with
// production defaults behind a tmirouter, all on loopback.
type svcEnv struct {
	lc     *cluster.Local
	nodes  []string
	hc     *http.Client
	routed bool
}

func newSvcEnv(routed bool) (*svcEnv, error) {
	lc, err := cluster.NewLocal(2, service.Config{}, cluster.Config{})
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}
	return &svcEnv{lc: lc, nodes: lc.NodeURLs(), hc: &http.Client{Transport: tr}, routed: routed}, nil
}

func (e *svcEnv) close() {
	e.hc.CloseIdleConnections()
	e.lc.Close()
}

// get fetches url and returns its status and body.
func (e *svcEnv) get(url string) (int, []byte, error) {
	resp, err := e.hc.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// exportStatus times GET /v1/export for tenant on node.
func (e *svcEnv) exportStatus(node, tenant string) (int, float64, error) {
	t0 := time.Now()
	code, _, err := e.get(node + "/v1/export?tenant=" + tenant)
	return code, ms(time.Since(t0)), err
}

// migrateOut is one migration's measurements.
type migrateOut struct {
	ms       float64
	at       time.Time // when the migration call returned
	exportMS float64   // traced only: GET /v1/export on the owner first
}

// migrate moves tenant's idle session off src (or, when src is "", off
// whichever node holds it) with Router.MigrateTenant and times the call.
// The ack must count every streamed record and the source must then answer
// 404 for the tenant.
func (e *svcEnv) migrate(src, tenant string, records int, traced bool) (*migrateOut, error) {
	out := &migrateOut{}
	other := func(n string) string {
		if n == e.nodes[0] {
			return e.nodes[1]
		}
		return e.nodes[0]
	}
	if traced {
		for _, n := range e.nodes {
			if src != "" && n != src {
				continue
			}
			code, t, err := e.exportStatus(n, tenant)
			if err != nil {
				return nil, err
			}
			if code == http.StatusOK {
				src, out.exportMS = n, t
				break
			}
		}
		if src == "" || out.exportMS == 0 {
			return nil, fmt.Errorf("migrate %s: no node exports the session", tenant)
		}
	}
	var got int
	var err error
	if src != "" {
		t0 := time.Now()
		got, err = e.lc.Router.MigrateTenant(src, other(src), tenant)
		out.at = time.Now()
		out.ms = ms(out.at.Sub(t0))
	} else {
		// Routed and untraced: the router placed the session by hash and
		// load, so try each node; a source without it answers a no-op.
		for _, n := range e.nodes {
			t0 := time.Now()
			got, err = e.lc.Router.MigrateTenant(n, other(n), tenant)
			out.at = time.Now()
			out.ms = ms(out.at.Sub(t0))
			if err != nil || got > 0 {
				src = n
				break
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("migrate %s: %w", tenant, err)
	}
	if got != records {
		return nil, fmt.Errorf("migrate %s: ack counted %d records, streamed %d", tenant, got, records)
	}
	code, _, err := e.exportStatus(src, tenant)
	if err != nil {
		return nil, err
	}
	if code != http.StatusNotFound {
		return nil, fmt.Errorf("migrate %s: source still answers %d after migration", tenant, code)
	}
	return out, nil
}

// adviceHistogram sums tmid_advice_latency_seconds _sum and _count over
// the nodes. Only counters and histogram sums are read from /metrics.
func (e *svcEnv) adviceHistogram() (sum, count float64, err error) {
	for _, n := range e.nodes {
		code, body, err := e.get(n + "/metrics")
		if err != nil {
			return 0, 0, err
		}
		if code != http.StatusOK {
			return 0, 0, fmt.Errorf("%s/metrics: status %d", n, code)
		}
		for _, line := range strings.Split(string(body), "\n") {
			name, val, ok := strings.Cut(line, " ")
			if !ok {
				continue
			}
			switch name {
			case "tmid_advice_latency_seconds_sum", "tmid_advice_latency_seconds_count":
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return 0, 0, fmt.Errorf("%s: %w", name, err)
				}
				if strings.HasSuffix(name, "_sum") {
					sum += v
				} else {
					count += v
				}
			}
		}
	}
	return sum, count, nil
}

// svcResult is what the service stage measured.
type svcResult struct {
	// adviceMS and migrateMS are the open-loop samples, with the steal
	// interval each one completed in.
	adviceMS, migrateMS   []float64
	adviceBin, migrateBin []int
	openSteal             []float64 // host steal per interval of the open loop
	exportMS              []float64
	blockMS               []float64
	lateMaxMS             float64
	migratedRec           int
	migrateSecs           float64
	directMS              []float64 // traced: open-loop tick latencies on the direct path
	routedMS              []float64 // traced: the same on the routed path
	satRecords            int
	// satRates is the ingest rate of each saturation interval, with the
	// host steal seen during it.
	satRates []float64
	satSteal []float64
	serverMS float64 // mean server-side advice latency over the open loop
	tally    tally
}

// Rounds bound memory: a migratable node keeps every session's samples
// until the session's idle TTL, so the open-loop phase runs in rounds of
// about openRound, each on a fresh cluster. Both phases are cut into
// intervals of stealInterval, which let a run keep its quiet intervals
// (see quiet). The saturation phase first runs satWarm unmeasured (see
// svcRunner.warm).
const (
	openRound     = time.Second
	stealInterval = 250 * time.Millisecond
	satWarm       = 2 * time.Second
)

// stealSampler reads host steal once per stealInterval from start, for n
// intervals or, with n = 0, until it is finished.
type stealSampler struct {
	start  time.Time
	n      int
	steals []float64
	stop   chan struct{}
	done   chan struct{}
}

func startStealSampler(start time.Time, n int) *stealSampler {
	ss := &stealSampler{start: start, n: n, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(ss.done)
		time.Sleep(time.Until(start))
		last := hostStealSeconds()
		for i := 1; n == 0 || i <= n; i++ {
			select {
			case <-ss.stop:
				return
			case <-time.After(time.Until(start.Add(time.Duration(i) * stealInterval))):
			}
			now := hostStealSeconds()
			ss.steals = append(ss.steals, now-last)
			last = now
		}
	}()
	return ss
}

// bin is the interval t falls in, or -1 before start.
func (ss *stealSampler) bin(t time.Time) int {
	if t.Before(ss.start) {
		return -1
	}
	return int(t.Sub(ss.start) / stealInterval)
}

// finish returns the steal of each whole interval: after the n intervals a
// counted sampler was started for, or, for an open-ended one, at once.
func (ss *stealSampler) finish() []float64 {
	if ss.n == 0 {
		close(ss.stop)
	}
	<-ss.done
	return ss.steals
}

// svcRunner runs the service stages a round at a time, so the rounds can
// be spread over the run between simulation slices: each round is an
// open-loop round on a migratable cluster, then a saturation slice on the
// plain cluster. The open loop's steal sampler runs from the first round
// to finish; only the intervals the open loop finished samples in count
// (see svcResult.openIntervals).
type svcRunner struct {
	env            *svcEnv // the set-up cluster, until the first round takes it
	plain          *plainCluster
	routed, traced bool
	chunks         []*chunk
	sat            *chunk
	steal          *stealSampler
	res            *svcResult

	serverSum, serverCount float64
}

func newSvcRunner(env *svcEnv, plain *plainCluster, routed bool, chunks []*chunk, sat *chunk, traced bool) *svcRunner {
	return &svcRunner{env: env, plain: plain, routed: routed, traced: traced, chunks: chunks, sat: sat,
		steal: startStealSampler(time.Now(), 0), res: &svcResult{}}
}

// warm saturates the plain cluster for d unmeasured: throughput on a
// cluster that has not streamed yet ramps up over one to two seconds.
func (r *svcRunner) warm(d time.Duration) {
	r.plain.saturate(r.sat, d, 0, r.routed, r.res)
}

// round runs the open loop for open, on the set-up cluster the first time
// and on a fresh one after that, closes that cluster, and then saturates
// the plain cluster for satIntervals intervals.
func (r *svcRunner) round(open time.Duration, satIntervals int) {
	e := r.env
	r.env = nil
	if e == nil {
		var err error
		if e, err = newSvcEnv(r.routed); err != nil {
			r.res.tally.fail("cluster: " + err.Error())
			return
		}
	}
	runtime.GC()
	sum0, n0, err0 := e.adviceHistogram()
	e.openLoop(r.chunks, open, r.traced, r.steal, r.res)
	sum1, n1, err1 := e.adviceHistogram()
	if err := errors.Join(err0, err1); err != nil {
		r.res.tally.fail("metrics: " + err.Error())
	}
	r.serverSum += sum1 - sum0
	r.serverCount += n1 - n0
	e.close()
	if satIntervals > 0 {
		r.plain.saturate(r.sat, 0, satIntervals, r.routed, r.res)
	}
}

// finish stops the steal sampler, closes the set-up cluster if no round
// took it, and returns the result.
func (r *svcRunner) finish() *svcResult {
	if r.env != nil {
		r.env.close()
		r.env = nil
	}
	r.res.openSteal = r.steal.finish()
	if r.serverCount > 0 {
		r.res.serverMS = r.serverSum / r.serverCount * 1000
	}
	return r.res
}

// openIntervals returns, in order, the steal intervals in which at least
// one open-loop tick's advice arrived.
func (r *svcResult) openIntervals() []int {
	seen := map[int]bool{}
	var idx []int
	for _, b := range r.adviceBin {
		if b >= 0 && b < len(r.openSteal) && !seen[b] {
			seen[b] = true
			idx = append(idx, b)
		}
	}
	slices.Sort(idx)
	return idx
}

// quietSamples pools the advice and migration samples that completed in
// the open loop's quiet intervals.
func (r *svcResult) quietSamples() (advice, migrate []float64) {
	open := r.openIntervals()
	keep := map[int]bool{}
	for _, i := range quiet(pick(r.openSteal, open)) {
		keep[open[i]] = true
	}
	for i, b := range r.adviceBin {
		if keep[b] {
			advice = append(advice, r.adviceMS[i])
		}
	}
	for i, b := range r.migrateBin {
		if keep[b] {
			migrate = append(migrate, r.migrateMS[i])
		}
	}
	return advice, migrate
}

// openLoop runs one round of the paced phase for dur: the streams run
// concurrently, each sending its sessions' windows on a fixed schedule and
// migrating every finished session to the other node. In traced mode
// every session is followed by a paired session over the other path
// (direct vs routed) for the relay estimate.
func (e *svcEnv) openLoop(chunks []*chunk, dur time.Duration, traced bool, steal *stealSampler, res *svcResult) {
	var mu sync.Mutex
	stop := time.Now().Add(dur)
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; time.Now().Before(stop); k++ {
				ch := chunks[(s+streams*k)%len(chunks)]
				tenant := fmt.Sprintf("open-s%d-k%d", s, k)
				src := e.nodes[(s+k)%len(e.nodes)]
				base := src
				if e.routed {
					base, src = e.lc.RouterURL, ""
				}
				so, serr := streamSession(e.hc, base, tenant, ch, slot)
				var mo *migrateOut
				var merr error
				if serr == nil {
					mo, merr = e.migrate(src, tenant, ch.records, traced)
				}
				var pair *sessionOut
				var perr error
				if traced {
					pairBase := e.lc.RouterURL
					if e.routed {
						pairBase = e.nodes[(s+k)%len(e.nodes)]
					}
					pair, perr = streamSession(e.hc, pairBase, tenant+"-pair", ch, slot)
				}
				mu.Lock()
				switch {
				case serr != nil:
					res.tally.fail(serr.Error())
				case merr != nil:
					res.tally.ok()
					res.tally.fail(merr.Error())
				default:
					res.tally.ok() // the stream
					res.tally.ok() // its migration
					res.adviceMS = append(res.adviceMS, so.latMS...)
					for _, t := range so.latAt {
						res.adviceBin = append(res.adviceBin, steal.bin(t))
					}
					res.blockMS = append(res.blockMS, so.blockMS...)
					res.lateMaxMS = max(res.lateMaxMS, so.lateMaxMS)
					res.migrateMS = append(res.migrateMS, mo.ms)
					res.migrateBin = append(res.migrateBin, steal.bin(mo.at))
					res.migratedRec += ch.records
					res.migrateSecs += mo.ms / 1000
					if mo.exportMS > 0 {
						res.exportMS = append(res.exportMS, mo.exportMS)
					}
				}
				if traced {
					if perr != nil {
						res.tally.fail(perr.Error())
					} else {
						res.tally.ok()
						if serr == nil {
							direct, routed := so.latMS, pair.latMS
							if e.routed {
								direct, routed = routed, direct
							}
							res.directMS = append(res.directMS, direct...)
							res.routedMS = append(res.routedMS, routed...)
						}
					}
				}
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
}

// plainCluster is two tmid nodes with production defaults (not
// migratable, so they keep no per-session sample log) behind a tmirouter:
// the saturation phase's target, which can run long without its memory
// growing with every record streamed.
type plainCluster struct {
	nodes     []string
	routerURL string
	router    *cluster.Router
	srvs      []*service.Server
	hss       []*http.Server
	hc        *http.Client
	slices    int // saturate calls so far, which keep tenants apart
}

func newPlainCluster() (*plainCluster, error) {
	pc := &plainCluster{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}}}
	serve := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		hs := &http.Server{Handler: h}
		pc.hss = append(pc.hss, hs)
		go hs.Serve(ln)
		return "http://" + ln.Addr().String(), nil
	}
	for i := 0; i < 2; i++ {
		srv := service.New(service.Config{})
		pc.srvs = append(pc.srvs, srv)
		url, err := serve(srv.Handler())
		if err != nil {
			pc.close()
			return nil, err
		}
		pc.nodes = append(pc.nodes, url)
	}
	pc.router = cluster.New(cluster.Config{Nodes: pc.nodes})
	url, err := serve(pc.router.Handler())
	if err != nil {
		pc.close()
		return nil, err
	}
	pc.routerURL = url
	return pc, nil
}

func (pc *plainCluster) close() {
	pc.hc.CloseIdleConnections()
	for _, hs := range pc.hss {
		hs.Close()
	}
	if pc.router != nil {
		pc.router.Close()
	}
	for _, srv := range pc.srvs {
		srv.Drain()
	}
}

// saturate pipelines sessions back to back on every stream: for warm
// unmeasured, then for n intervals of stealInterval. An interval's rate
// counts the records of the windows whose advice came back in it, over its
// length less its share of host steal.
func (pc *plainCluster) saturate(ch *chunk, warm time.Duration, n int, routed bool, res *svcResult) {
	start := time.Now().Add(warm)
	stop := start.Add(time.Duration(n) * stealInterval)
	var steal *stealSampler
	if n > 0 {
		steal = startStealSampler(start, n)
	}
	records := make([]int, n)
	slice := pc.slices
	pc.slices++
	var mu sync.Mutex
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; time.Now().Before(stop); k++ {
				base := pc.nodes[(s+k)%len(pc.nodes)]
				if routed {
					base = pc.routerURL
				}
				tenant := fmt.Sprintf("sat-r%d-s%d-k%d", slice, s, k)
				so, err := streamSession(pc.hc, base, tenant, ch, 0)
				mu.Lock()
				if err != nil {
					res.tally.fail(err.Error())
				} else {
					res.tally.ok()
					res.satRecords += so.records
					for i, at := range so.latAt {
						if b := int(at.Sub(start) / stealInterval); !at.Before(start) && b < n {
							records[b] += ch.frameRecords[i]
						}
					}
				}
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	if steal == nil {
		return
	}
	steals := steal.finish()
	// Both vCPUs are busy while saturated, so an interval's steal took
	// that share of the machine's CPU away from it. The floor keeps an
	// interval whose steal reading ran long (the sampler woke late) from
	// dividing by nothing; such an interval is not quiet.
	cpus := float64(runtime.NumCPU())
	for b, n := range records {
		secs := max(stealInterval.Seconds()-steals[b]/cpus, stealInterval.Seconds()/2)
		res.satRates = append(res.satRates, float64(n)/secs)
	}
	res.satSteal = append(res.satSteal, steals...)
}
