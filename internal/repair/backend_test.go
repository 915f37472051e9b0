package repair

import (
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/detect"
	"repro/internal/sim/cache"
	"repro/internal/sim/machine"
)

func TestValidBackendNames(t *testing.T) {
	if CheckBackend("") != nil {
		t.Error("empty backend (default) must be valid")
	}
	for _, n := range BackendNames {
		if CheckBackend(n) != nil {
			t.Errorf("registered backend %q rejected", n)
		}
	}
	err := CheckBackend("voodoo")
	if err == nil || !strings.Contains(err.Error(), "voodoo") {
		t.Errorf("error should name the offender: %v", err)
	}
	for _, n := range BackendNames {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("error should list valid backend %q: %v", n, err)
		}
	}
}

// pingPong runs two threads hammering adjacent words of the heap line,
// invoking arm from thread 0 at iteration armAt, and returns the HITM
// counts before and after the arm call.
func pingPong(t *testing.T, f *fixture, iters, armAt int, arm func(th *machine.Thread)) (before, after uint64) {
	t.Helper()
	body := func(th *machine.Thread) {
		for i := 0; i < iters; i++ {
			th.Store(1, heapBase+uint64(th.ID)*8, 8, uint64(i))
			th.Work(60)
			if th.ID == 0 && i == armAt {
				before = f.mc.Cache().Stats().HITM
				arm(th)
			}
		}
	}
	if err := f.mc.Run([]func(*machine.Thread){body, body}); err != nil {
		t.Fatal(err)
	}
	after = f.mc.Cache().Stats().HITM - before
	return before, after
}

func TestPadIsolatesFlaggedPage(t *testing.T) {
	f := newFixture(t, 2)
	al := alloc.New(alloc.TMIPolicy(), alloc.BackingSharedFile, nil, 4096)
	pad := NewPad(f.mc, f.shared, al)
	req := &detect.Request{Pages: []uint64{heapBase}}
	before, after := pingPong(t, f, 600, 100, func(th *machine.Thread) {
		if err := pad.Arm(req, th.Clock(), quiet); err != nil {
			t.Errorf("arm: %v", err)
		}
		// Same page again: counted, not re-charged.
		if err := pad.Arm(req, th.Clock(), quiet); err != nil {
			t.Errorf("re-arm: %v", err)
		}
	})
	if before == 0 {
		t.Fatal("expected contention before re-segregation")
	}
	if after*20 > before {
		t.Errorf("pad ineffective: %d HITM before, %d after", before, after)
	}
	st := pad.BackendStats()
	if st.ConvertedAtCycle == 0 {
		t.Error("pad should record when it switched the allocator")
	}
	if st.Backend != BackendPad {
		t.Errorf("stats name %q", st.Backend)
	}
	wantLines := 4096 / 64
	if st.LinesIsolated != wantLines {
		t.Errorf("lines isolated %d, want %d (one page, deduped)", st.LinesIsolated, wantLines)
	}
	if st.RepairEvents != 2 {
		t.Errorf("repair events %d, want 2", st.RepairEvents)
	}
	if al.PolicySwitches != 1 {
		t.Errorf("policy switches %d, want exactly 1", al.PolicySwitches)
	}
}

func TestPadUnmappedPageFails(t *testing.T) {
	f := newFixture(t, 1)
	al := alloc.New(alloc.TMIPolicy(), alloc.BackingSharedFile, nil, 4096)
	pad := NewPad(f.mc, f.shared, al)
	err := pad.Arm(&detect.Request{Pages: []uint64{0xdead_0000}}, 0, quiet)
	if err == nil {
		t.Fatal("arming an unmapped page should fail")
	}
	if got := pad.BackendStats().FailedRepairs; got != 1 {
		t.Errorf("failed repairs %d, want 1", got)
	}
}

func TestMappingMigratesToHomeCore(t *testing.T) {
	f := newFixture(t, 2)
	mp := NewMapping(f.mc, f.shared)
	req := &detect.Request{
		Pages: []uint64{heapBase},
		Lines: []detect.LineReport{{Line: heapBase, EstEventsPerSec: 1e6}},
	}
	before, after := pingPong(t, f, 600, 100, func(th *machine.Thread) {
		if err := mp.Arm(req, th.Clock(), quiet); err != nil {
			t.Errorf("arm: %v", err)
		}
	})
	if before == 0 {
		t.Fatal("expected contention before migration")
	}
	// Both threads share one core and one private cache: no more HITMs.
	if after*20 > before {
		t.Errorf("map ineffective: %d HITM before, %d after", before, after)
	}
	if f.mc.Thread(0).Core != f.mc.Thread(1).Core {
		t.Error("contending threads should be co-resident after migration")
	}
	st := mp.BackendStats()
	if st.Backend != BackendMap || st.ThreadsMigrated != 1 {
		t.Errorf("stats %+v, want backend=map threadsMigrated=1", st)
	}
	// Co-residency is billed: each of the two threads pays for one peer.
	if got := mp.AccessCost(f.mc.Thread(0), nil, cache.Result{}); got != LatCoShare {
		t.Errorf("access cost %d, want %d", got, LatCoShare)
	}
}

func TestMappingUnmappedPageFails(t *testing.T) {
	f := newFixture(t, 1)
	mp := NewMapping(f.mc, f.shared)
	err := mp.Arm(&detect.Request{Pages: []uint64{0xdead_0000}}, 0, quiet)
	if err == nil {
		t.Fatal("migrating toward an unmapped page should fail")
	}
	if got := mp.BackendStats().FailedRepairs; got != 1 {
		t.Errorf("failed repairs %d, want 1", got)
	}
}

func TestTMEBoxKeysDomainsWithoutFork(t *testing.T) {
	f := newFixture(t, 2)
	box := NewTMEBox(f.app, f.eng)
	req := &detect.Request{Pages: []uint64{heapBase}}
	before, after := pingPong(t, f, 600, 100, func(th *machine.Thread) {
		if err := box.Arm(req, th.Clock(), quiet); err != nil {
			t.Errorf("arm: %v", err)
		}
	})
	if before == 0 {
		t.Fatal("expected contention before isolation")
	}
	if after*20 > before {
		t.Errorf("tmebox ineffective: %d HITM before, %d after", before, after)
	}
	if got := len(box.Spaces()); got != 2 {
		t.Fatalf("spaces %d, want one per thread", got)
	}
	// Keyed views, not forked processes: the threads stay in the app's
	// thread list, each behind its own cloned view of the app space.
	if got := len(f.app.Threads); got != 2 {
		t.Errorf("app threads %d, want 2 (no fork)", got)
	}
	s0, s1 := f.mc.Thread(0).Space(), f.mc.Thread(1).Space()
	if s0 == s1 || s0 == f.app.Space || s1 == f.app.Space {
		t.Error("each thread needs its own keyed view distinct from the app space")
	}
	if f.eng.Stats.TwinFaults == 0 {
		t.Error("writes to the armed page should twin-fault per domain")
	}
	st := box.BackendStats()
	if st.Backend != BackendTMEBox || st.PagesProtected != 1 {
		t.Errorf("stats %+v, want backend=tmebox pagesProtected=1", st)
	}
}

func TestEngineHandleSurfacesProtectError(t *testing.T) {
	f := newFixture(t, 1)
	var handleErr error
	err := f.mc.Run([]func(*machine.Thread){func(th *machine.Thread) {
		th.Work(10)
		handleErr = f.rep.Arm(&detect.Request{Pages: []uint64{0xdead_0000}}, th.Clock(), quiet)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if handleErr == nil {
		t.Fatal("protecting an unmapped page must return an error, not panic")
	}
	if f.rep.BackendStats().FailedRepairs != 1 {
		t.Errorf("failed repairs %d, want 1", f.rep.BackendStats().FailedRepairs)
	}
}

// TestLineBackendsChargeFlaggedLines pins LASER's and Plastic's cost
// model: nothing but Plastic's DBI tax before engagement, then the
// store-buffer or remap cost on flagged lines only; a sync-heavy LASER
// never engages.
func TestLineBackendsChargeFlaggedLines(t *testing.T) {
	const line = heapBase + 128
	req := &detect.Request{Lines: []detect.LineReport{{Line: line}}}
	store := &machine.Access{Addr: line + 8, Write: true}
	load := &machine.Access{Addr: line + 8}
	other := &machine.Access{Addr: line + cache.LineSize, Write: true}
	hitm := cache.Result{Latency: 200}

	las := NewLaser(false)
	if got := las.AccessCost(nil, store, hitm); got != 0 {
		t.Errorf("laser before engaging: cost %d, want 0", got)
	}
	var events []string
	logf := func(now int64, format string, args ...any) { events = append(events, format) }
	if err := las.Arm(req, 7, logf); err != nil {
		t.Fatal(err)
	}
	if got, want := las.AccessCost(nil, store, hitm), int64(LaserStoreFixed+0.3*200-200); got != want {
		t.Errorf("laser buffered store: cost %d, want %d", got, want)
	}
	if got := las.AccessCost(nil, load, hitm); got != LaserLoadOverhead {
		t.Errorf("laser load: cost %d, want %d", got, LaserLoadOverhead)
	}
	if got := las.AccessCost(nil, other, hitm); got != 0 {
		t.Errorf("laser unflagged line: cost %d, want 0", got)
	}
	st := las.BackendStats()
	if st.Backend != BackendLASER || st.RepairEvents != 1 || st.LinesIsolated != 1 || st.ConvertedAtCycle != 7 || len(events) != 1 {
		t.Errorf("laser stats %+v, events %q", st, events)
	}

	off := NewLaser(true)
	if err := off.Arm(req, 7, logf); err != nil || off.BackendStats().RepairEvents != 0 || off.AccessCost(nil, store, hitm) != 0 {
		t.Error("sync-heavy laser must stay off")
	}

	pl := NewPlastic()
	if got := pl.AccessCost(nil, store, hitm); got != PlasticDBIOverhead {
		t.Errorf("plastic before engaging: cost %d, want the DBI tax %d", got, PlasticDBIOverhead)
	}
	if err := pl.Arm(req, 9, logf); err != nil {
		t.Fatal(err)
	}
	if got, want := pl.AccessCost(nil, store, hitm), int64(PlasticDBIOverhead+PlasticRemapCost-200); got != want {
		t.Errorf("plastic remapped line: cost %d, want %d", got, want)
	}
	if got := pl.AccessCost(nil, store, cache.Result{Latency: 4}); got != PlasticDBIOverhead {
		t.Errorf("plastic fast access: cost %d, want the DBI tax only", got)
	}
	if got := pl.AccessCost(nil, other, hitm); got != PlasticDBIOverhead {
		t.Errorf("plastic unflagged line: cost %d, want the DBI tax only", got)
	}
	if st := pl.BackendStats(); st.Backend != BackendPlastic || st.ConvertedAtCycle != 9 {
		t.Errorf("plastic stats %+v", st)
	}
}
