package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/sim/cache"
	"repro/internal/sim/machine"
	"repro/tmi"
	"repro/tmi/workloads"
)

// cell is one simulation: a catalog workload under one system.
type cell struct {
	name    string
	setup   core.Setup
	sys     tmi.System
	huge    bool
	period  int  // 0 takes the default sampling period
	capture bool // record the detector's sample stream into the report
}

func (c cell) key() string {
	page := "4k"
	if c.huge {
		page = "2m"
	}
	return fmt.Sprintf("%s/%s/%s/p%d", c.name, c.setup, page, c.period)
}

// repairCells is Figure 9's pair: every false-sharing suite member under
// pthreads and under full TMI, on 4 KiB pages.
func repairCells() []cell {
	var cells []cell
	for _, w := range workloads.FSSuite() {
		cells = append(cells,
			cell{name: w.Name(), setup: core.Pthreads, sys: tmi.Pthreads},
			cell{name: w.Name(), setup: core.TMIProtect, sys: tmi.TMIProtect})
	}
	return cells
}

// cleanCells is Figure 7's detection configuration over the suite members
// without known false sharing.
func cleanCells() []cell {
	fs := map[string]bool{}
	for _, w := range workloads.FSSuite() {
		fs[w.Name()] = true
	}
	var cells []cell
	for _, w := range workloads.Suite() {
		if !fs[w.Name()] {
			cells = append(cells, cell{name: w.Name(), setup: core.TMIDetect, sys: tmi.TMIDetect, huge: true})
		}
	}
	return cells
}

// captureCell is the period-1 histogramfs run whose detector sample stream
// every workload's streams replay.
var captureCell = cell{name: "histogramfs", setup: core.TMIDetect, sys: tmi.TMIDetect, huge: true, period: 1, capture: true}

// simSeed maps the benchmark seed onto a simulator seed the way tmi.Run
// does, so traced (core.Run) and untraced (tmi.Run) cells agree.
func simSeed(seed int64) int64 {
	if seed == 0 {
		return 1
	}
	return seed
}

// runCell simulates c with a freshly constructed workload instance (a
// workload instance is not reused: see README "Known defects"). With obs
// nil it goes through the public tmi.Run; with obs set it goes through
// core.Run with the same configuration plus the observer. It returns the
// report and the host seconds spent inside the run call.
func runCell(c cell, seed int64, obs core.Observer) (*core.Report, float64, error) {
	w, err := workloads.ByName(c.name)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	var rep *core.Report
	if obs == nil {
		rep, err = tmi.Run(w, tmi.Config{System: c.sys, HugePages: c.huge, Period: c.period,
			Seed: simSeed(seed), CaptureSamples: c.capture})
	} else {
		rep, err = core.Run(w, core.Config{Setup: c.setup, HugePages: c.huge, Period: c.period,
			Seed: simSeed(seed), DetectIntervalSec: tmi.DefaultDetectInterval,
			CaptureSamples: c.capture, Observer: obs})
	}
	return rep, time.Since(start).Seconds(), err
}

// digest fingerprints a cell's simulated outcome. Host timing never enters
// it, so a change that only speeds up the simulator must leave it unchanged.
func digest(rep *core.Report) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%x %d %d %d %t", math.Float64bits(rep.SimSeconds), rep.HITMEvents,
		rep.RecordsSeen, rep.Commits, rep.Validated)
	return fmt.Sprintf("%016x", h.Sum64())
}

// digestSeed is the seed the stored digests were recorded at.
const digestSeed = 1

//go:embed digests.json
var storedDigestsJSON []byte

type digestFile struct {
	Seed  int64             `json:"seed"`
	Cells map[string]string `json:"cells"`
}

func storedDigests() (map[string]string, error) {
	var f digestFile
	if err := json.Unmarshal(storedDigestsJSON, &f); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	if f.Seed != digestSeed {
		return nil, fmt.Errorf("digests.json: recorded at seed %d, want %d", f.Seed, digestSeed)
	}
	return f.Cells, nil
}

// digestChecker validates cells. At the stored seed every cell must match
// its stored digest; at any other seed the first run of a cell fixes its
// digest and every later run (untraced or traced) must repeat it.
type digestChecker struct {
	want map[string]string
	seen map[string]string
}

func newDigestChecker(seed int64, stored map[string]string) *digestChecker {
	d := &digestChecker{seen: map[string]string{}}
	if simSeed(seed) == digestSeed {
		d.want = stored
	}
	return d
}

// check returns "" when the cell ran correctly, else the failure reason.
func (d *digestChecker) check(c cell, rep *core.Report, err error) string {
	switch {
	case err != nil:
		return fmt.Sprintf("%s: %v", c.key(), err)
	case rep.Hung:
		return fmt.Sprintf("%s: hung: %s", c.key(), rep.HangReason)
	case !rep.Validated:
		return fmt.Sprintf("%s: failed validation: %s", c.key(), rep.ValidationErr)
	}
	got := digest(rep)
	want, ok := d.want[c.key()]
	if d.want != nil && !ok {
		return fmt.Sprintf("%s: no stored digest", c.key())
	}
	if !ok {
		want, ok = d.seen[c.key()]
	}
	if ok && got != want {
		return fmt.Sprintf("%s: digest %s, want %s", c.key(), got, want)
	}
	d.seen[c.key()] = got
	return ""
}

// access is one observed memory access, packed for cache replay.
type access struct {
	addr  uint64
	tid   uint16
	size  uint16
	write bool
	atom  bool
}

// tap is the traced run's core.Observer. It counts simulated-thread
// switches from outside (a switch is a TID change between consecutive
// accesses), the host time between consecutive accesses, sync events, and
// records the access stream for cache replay.
type tap struct {
	base      time.Time
	last      int64
	lastTID   int
	accesses  uint64
	switches  uint64
	syncs     uint64
	gapSame   []uint32
	gapSwitch []uint32
	stream    []access
}

func newTap() *tap { return &tap{base: time.Now()} }

func (t *tap) OnAccess(a *core.AccessInfo) {
	now := int64(time.Since(t.base))
	if t.accesses > 0 {
		gap := uint32(min(now-t.last, math.MaxUint32))
		if a.TID != t.lastTID {
			t.switches++
			t.gapSwitch = append(t.gapSwitch, gap)
		} else {
			t.gapSame = append(t.gapSame, gap)
		}
	}
	t.accesses++
	t.lastTID = a.TID
	t.stream = append(t.stream, access{addr: a.Addr, tid: uint16(a.TID), size: uint16(a.Size), write: a.Write, atom: a.Atomic})
	t.last = int64(time.Since(t.base))
}

func (t *tap) OnRegion(int, machine.RegionKind, bool) {}
func (t *tap) OnSync(int)                             { t.syncs++ }
func (t *tap) OnWake(int, int)                        {}

// replayCache feeds the recorded stream into a fresh coherence model and
// returns the host seconds it took.
func replayCache(stream []access) float64 {
	cores := 1
	for _, a := range stream {
		cores = max(cores, int(a.tid)+1)
	}
	cores = min(cores, 64)
	cs := cache.New(cores)
	start := time.Now()
	for _, a := range stream {
		cs.Access(int(a.tid)%cores, a.addr, int(a.size), a.write, a.atom)
	}
	return time.Since(start).Seconds()
}

// simResult is what the simulation stage measured.
type simResult struct {
	passRates []float64          // simulated accesses per host second, one per untraced pass
	passSteal []float64          // host steal seconds during each untraced pass's cells
	untracedS []float64          // host seconds per untraced pass
	tracedS   []float64          // host seconds per traced pass
	layer     map[string]float64 // per-layer counts and times (traced runs)
	tally     tally
}

// simRunner runs whole passes over cells, a slice of the run at a time, so
// that the simulation stage's samples spread over the whole run rather
// than one stretch of it: the host's speed drifts over seconds. A pass may
// span slices; only the host time inside its cells counts. In traced mode
// passes alternate untraced and traced, starting untraced.
type simRunner struct {
	cells   []cell
	seed    int64
	checker *digestChecker
	traced  bool
	res     *simResult

	pass, next int // the pass under way and its next cell
	accesses   uint64
	hostS      float64
	steal      float64

	replayS                        float64
	replayN, obsAccesses, switches uint64
	gapSame, gapSwitch             []uint32
}

func newSimRunner(cells []cell, seed int64, checker *digestChecker, traced bool) *simRunner {
	return &simRunner{cells: cells, seed: seed, checker: checker, traced: traced,
		res: &simResult{layer: map[string]float64{}}}
}

// runUntil runs cells until deadline, at least one.
func (r *simRunner) runUntil(deadline time.Time) {
	for {
		r.step()
		if time.Now().After(deadline) {
			return
		}
	}
}

// step runs the next cell of the pass under way, and closes the pass after
// its last cell.
func (r *simRunner) step() {
	c := r.cells[r.next]
	withTap := r.traced && r.pass%2 == 1
	// Each cell starts from a collected heap, so neither its host time nor
	// the peak RSS depends on when the previous cell's garbage happened to
	// be collected.
	runtime.GC()
	steal := hostStealSeconds()
	var obs *tap
	var rep *core.Report
	var secs float64
	var err error
	if withTap {
		obs = newTap()
		rep, secs, err = runCell(c, r.seed, obs)
	} else {
		rep, secs, err = runCell(c, r.seed, nil)
	}
	r.steal += hostStealSeconds() - steal
	r.hostS += secs
	if reason := r.checker.check(c, rep, err); reason != "" {
		r.res.tally.fail(reason)
	} else {
		r.res.tally.ok()
		r.accesses += rep.Cache.Accesses
		if obs != nil {
			r.obsAccesses += obs.accesses
			r.switches += obs.switches
			r.gapSame = append(r.gapSame, obs.gapSame...)
			r.gapSwitch = append(r.gapSwitch, obs.gapSwitch...)
			r.replayS += replayCache(obs.stream)
			r.replayN += uint64(len(obs.stream))
			if r.pass == 1 {
				addCellCounts(r.res.layer, rep, obs)
			}
		}
	}
	if r.next++; r.next < len(r.cells) {
		return
	}
	if withTap {
		r.res.tracedS = append(r.res.tracedS, r.hostS)
	} else {
		r.res.untracedS = append(r.res.untracedS, r.hostS)
		r.res.passRates = append(r.res.passRates, float64(r.accesses)/r.hostS)
		r.res.passSteal = append(r.res.passSteal, r.steal)
	}
	r.pass++
	r.next, r.accesses, r.hostS, r.steal = 0, 0, 0, 0
}

// finish runs cells until at least one pass (in traced mode, one of each
// kind) is complete, drops the pass under way and returns the result.
func (r *simRunner) finish() *simResult {
	res := r.res
	for len(res.untracedS) == 0 || (r.traced && len(res.tracedS) == 0) {
		r.step()
	}
	if r.traced {
		res.layer["machine.switches_per_access"] = float64(r.switches) / float64(max(r.obsAccesses, 1))
		res.layer["machine.gap_same_ns_p50"] = median(r.gapSame)
		res.layer["machine.gap_switch_ns_p50"] = median(r.gapSwitch)
		res.layer["cache.replay_ns_per_access"] = r.replayS * 1e9 / float64(max(r.replayN, 1))
		res.layer["core.trace_overhead"] = median(res.tracedS) / median(res.untracedS)
	}
	return res
}

// addCellCounts adds one traced cell's exact simulated counts.
func addCellCounts(m map[string]float64, rep *core.Report, obs *tap) {
	m["cache.accesses"] += float64(rep.Cache.Accesses)
	m["cache.hitm"] += float64(rep.Cache.HITM)
	m["cache.l1_hits"] += float64(rep.Cache.L1Hits)
	m["pebs.records"] += float64(rep.RecordsSeen)
	m["pebs.dropped"] += float64(rep.Dropped)
	m["ptsb.twin_faults"] += float64(rep.TwinFaults)
	m["ptsb.commits"] += float64(rep.Commits)
	m["ptsb.bytes_merged"] += float64(rep.BytesMerged)
	m["repair.pages_protected"] += float64(rep.PagesProtected)
	m["core.sync_events"] += float64(obs.syncs)
}
