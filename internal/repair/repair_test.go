package repair

import (
	"testing"

	"repro/internal/detect"
	"repro/internal/ptsb"
	"repro/internal/sim/machine"
	"repro/internal/sim/mem"
	"repro/internal/sim/osim"
)

const heapBase = 0x1000_0000

type fixture struct {
	os     *osim.OS
	app    *osim.Process
	mc     *machine.Machine
	shared *mem.AddrSpace
	eng    *ptsb.Engine
	rep    *Engine
}

func newFixture(t *testing.T, threads int) *fixture {
	t.Helper()
	m := mem.NewMemory(mem.PageSize4K)
	o := osim.New(m)
	app := o.NewProcess()
	heap := o.ShmOpen("heap")
	app.Space.Map(heapBase, 8, heap, 0, false, mem.ProtRW)
	shared := mem.NewAddrSpace(m)
	shared.Map(heapBase, 8, heap, 0, false, mem.ProtRW)
	mc := machine.New(machine.Config{Cores: threads, Seed: 7, Mem: m})
	for _, th := range mc.Threads() {
		th.SetSpace(app.Space)
		app.Threads = append(app.Threads, th)
	}
	eng := ptsb.NewEngine(m, shared)
	rep := New(o, app, eng)
	mc.SetHooks(machine.Hooks{
		OnFault: func(th *machine.Thread, acc *machine.Access, f *mem.Fault) (bool, int64) {
			if f.Kind == mem.FaultProtWrite {
				return eng.HandleWriteFault(th, acc.Addr)
			}
			return false, 0
		},
	})
	return &fixture{os: o, app: app, mc: mc, shared: shared, eng: eng, rep: rep}
}

func TestConvertOnceAndProtect(t *testing.T) {
	f := newFixture(t, 2)
	req := &detect.Request{Pages: []uint64{heapBase}}
	converted := false
	body := func(th *machine.Thread) {
		for i := 0; i < 100; i++ {
			th.Store(1, heapBase+uint64(th.ID)*8, 8, uint64(i))
			th.Work(50)
			if th.ID == 0 && i == 20 && !converted {
				converted = true
				f.rep.Arm(req, th.Clock(), quiet)
				// Idempotent: a second request for the same page is a no-op.
				f.rep.Arm(req, th.Clock(), quiet)
			}
		}
	}
	if err := f.mc.Run([]func(*machine.Thread){body, body}); err != nil {
		t.Fatal(err)
	}
	if f.rep.BackendStats().ConvertedAtCycle == 0 {
		t.Fatal("threads should have been converted")
	}
	if len(f.rep.Spaces()) != 2 {
		t.Errorf("spaces %d, want 2", len(f.rep.Spaces()))
	}
	if f.rep.BackendStats().RepairEvents != 2 {
		t.Errorf("repair events %d, want 2", f.rep.BackendStats().RepairEvents)
	}
	if f.rep.BackendStats().PagesProtected != 1 {
		t.Errorf("pages protected %d, want 1 (second request deduped)", f.rep.BackendStats().PagesProtected)
	}
	if len(f.rep.T2PMicros()) != 2 {
		t.Fatalf("T2P records %d, want 2", len(f.rep.T2PMicros()))
	}
	for _, us := range f.rep.T2PMicros() {
		if us < 70 || us > 190 {
			t.Errorf("T2P %f us outside the paper's 73-179us envelope", us)
		}
	}
	// Each thread runs in its own space now.
	if f.mc.Thread(0).Space() == f.mc.Thread(1).Space() {
		t.Error("converted threads must have distinct address spaces")
	}
	if f.mc.Thread(0).Space() == f.app.Space {
		t.Error("converted thread should not keep the app space")
	}
}

func TestRepairEliminatesContention(t *testing.T) {
	run := func(repairAt int) (uint64, uint64) {
		f := newFixture(t, 2)
		var before, after uint64
		body := func(th *machine.Thread) {
			for i := 0; i < 600; i++ {
				th.Store(1, heapBase+uint64(th.ID)*8, 8, uint64(i))
				th.Work(60)
				if th.ID == 0 && i == repairAt {
					before = f.mc.Cache().Stats().HITM
					f.rep.Arm(&detect.Request{Pages: []uint64{heapBase}}, th.Clock(), quiet)
				}
			}
		}
		if err := f.mc.Run([]func(*machine.Thread){body, body}); err != nil {
			t.Fatal(err)
		}
		after = f.mc.Cache().Stats().HITM - before
		return before, after
	}
	before, after := run(100)
	if before == 0 {
		t.Fatal("expected contention before repair")
	}
	// 500 remaining iterations should produce almost no HITM once each
	// thread writes its own physical page.
	if after*20 > before {
		t.Errorf("repair ineffective: %d HITM before, %d after", before, after)
	}
}

func TestHandleNilRequestIsNoOp(t *testing.T) {
	f := newFixture(t, 1)
	f.rep.Arm(nil, 0, quiet)
	f.rep.Arm(&detect.Request{}, 0, quiet)
	if len(f.rep.Spaces()) != 0 || f.rep.BackendStats().RepairEvents != 0 {
		t.Error("empty requests must not convert or count")
	}
}

func TestEverywhereProtectsWholeHeap(t *testing.T) {
	f := newFixture(t, 1)
	f.rep.Everywhere = true
	f.rep.HeapPages = func() []uint64 {
		return []uint64{heapBase, heapBase + 4096, heapBase + 8192}
	}
	body := func(th *machine.Thread) {
		th.Work(10)
		f.rep.Arm(&detect.Request{Pages: []uint64{heapBase}}, th.Clock(), quiet)
		th.Store(1, heapBase+4096+8, 8, 1) // a page the detector never named
	}
	if err := f.mc.Run([]func(*machine.Thread){body}); err != nil {
		t.Fatal(err)
	}
	if f.rep.BackendStats().PagesProtected != 3 {
		t.Errorf("pages protected %d, want all 3", f.rep.BackendStats().PagesProtected)
	}
	if f.eng.Stats.TwinFaults != 1 {
		t.Error("write to an everywhere-protected page should twin-fault")
	}
}

func TestFinishedThreadsAreSkipped(t *testing.T) {
	f := newFixture(t, 2)
	err := f.mc.Run([]func(*machine.Thread){
		func(th *machine.Thread) { th.Work(10) }, // finishes immediately
		func(th *machine.Thread) {
			th.Work(50_000)
			f.rep.Arm(&detect.Request{Pages: []uint64{heapBase}}, th.Clock(), quiet)
			th.Store(1, heapBase, 8, 9)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(f.rep.Spaces()); got != 1 {
		t.Errorf("only the live thread should convert, got %d spaces", got)
	}
}
