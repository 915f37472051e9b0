package machine

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim/cache"
)

// chainDepth is the length of the resume chain as seen by the running
// thread: the threads parked inside a resume, plus the running one.
func chainDepth(m *Machine) int {
	d := 1
	for _, th := range m.threads {
		if th.onChain {
			d++
		}
	}
	return d
}

// checkGoroutines fails t if the goroutine count stays above before: every
// coroutine of an aborted run must have been unwound. Only growth is a
// leak; a goroutine the test did not start may end during the run.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	for i := 0; i < 200 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines: %d after the run, %d before", n, before)
	}
}

// A body panic at the top of a deep chain unwinds every thread below it,
// reports the panicking thread, and leaks no coroutine.
func TestHandoffBodyPanicDeepChain(t *testing.T) {
	before := runtime.NumGoroutine()
	mc, _ := newMachine(t, 4)
	depth := 0
	body := func(th *Thread) {
		th.Work(10) // threads 0..2 each hand the token up the chain
		if th.ID == 3 {
			depth = chainDepth(th.m)
			panic("boom")
		}
		th.Work(10)
	}
	err := mc.Run([]func(*Thread){body, body, body, body})
	if err == nil || err.Error() != "machine: thread 3 panic: boom" {
		t.Fatalf("err = %v, want thread 3's panic", err)
	}
	if depth < 3 {
		t.Errorf("panic at chain depth %d, want >= 3", depth)
	}
	checkGoroutines(t, before)
}

// A deadlock found by a thread in the middle of the chain reports the same
// time as the driver-side check did: the clock of the last thread to give
// up the token.
func TestHandoffDeadlockMidChain(t *testing.T) {
	before := runtime.NumGoroutine()
	mc, _ := newMachine(t, 4)
	depth := 0
	body := func(th *Thread) {
		th.Work(10 + int64(th.ID))
		if th.ID == 2 {
			depth = chainDepth(th.m)
		}
		th.Block()
	}
	err := mc.Run([]func(*Thread){body, body, body, body})
	if err == nil || err.Error() != "machine: deadlock — all live threads blocked at t=12" {
		t.Fatalf("err = %v, want deadlock at t=12", err)
	}
	if depth < 3 {
		t.Errorf("deadlock found at chain depth %d, want >= 3", depth)
	}
	checkGoroutines(t, before)
}

// A timer that comes due while the chain is deep unwinds it to the driver:
// the callback runs with no thread parked mid-chain. A panicking callback
// still reports as the driver's "machine: panic".
func TestHandoffTimerDueDeepChain(t *testing.T) {
	for _, panics := range []bool{false, true} {
		before := runtime.NumGoroutine()
		mc, _ := newMachine(t, 4)
		var depth [4]int
		holderDepth, parked := 0, -1
		mc.AddTimer(25, 0, func(int64) {
			holderDepth = depth[mc.holder.ID]
			parked = chainDepth(mc) - 1
			mc.Thread(2).AddCost(7) // a stop-the-world charge
			if panics {
				panic("tick")
			}
		})
		body := func(th *Thread) {
			for i := 0; i < 6; i++ {
				th.Work(10)
				depth[th.ID] = chainDepth(th.m)
			}
		}
		err := mc.Run([]func(*Thread){body, body, body, body})
		if panics {
			if err == nil || err.Error() != "machine: panic: tick" {
				t.Errorf("err = %v, want the timer's panic", err)
			}
		} else if err != nil {
			t.Fatal(err)
		} else if got := mc.Thread(2).Clock(); got != 67 {
			t.Errorf("thread 2 clock %d, want 60 of work + 7 charged", got)
		}
		if holderDepth < 3 {
			t.Errorf("timer came due at chain depth %d, want >= 3", holderDepth)
		}
		if parked != 0 {
			t.Errorf("%d threads parked mid-chain while the timer ran, want 0", parked)
		}
		checkGoroutines(t, before)
	}
}

// depthSched wraps a Scheduler and records the chain depth at each Pick.
type depthSched struct {
	inner  Scheduler
	m      *Machine
	depths []int
}

func (s *depthSched) Pick(ready []*Thread) *Thread {
	s.depths = append(s.depths, chainDepth(s.m))
	return s.inner.Pick(ready)
}

// A nil Pick in the middle of the chain abandons the run cleanly.
func TestHandoffPickNilMidChain(t *testing.T) {
	before := runtime.NumGoroutine()
	mc, base := schedFixture(t, 3)
	s := &depthSched{inner: &scriptSched{script: []int{0, 1, 2, -1}}, m: mc}
	mc.SetScheduler(s)
	body := func(th *Thread) {
		for i := 0; i < 4; i++ {
			th.Store(0x100, base+uint64(th.ID)*8, 8, uint64(i))
		}
	}
	err := mc.Run([]func(*Thread){body, body, body})
	if !errors.Is(err, ErrScheduleAbandoned) {
		t.Fatalf("err = %v, want ErrScheduleAbandoned", err)
	}
	if n := len(s.depths); n != 4 || s.depths[n-1] < 3 {
		t.Errorf("pick depths %v, want the abandoning pick at depth >= 3", s.depths)
	}
	checkGoroutines(t, before)
}

// switchesPerTransfer runs n threads of pure compute quanta above
// schedSlack, so the token moves round-robin, and returns the coroutine
// switches per transfer over a steady-state window.
func switchesPerTransfer(t *testing.T, n int) float64 {
	t.Helper()
	mc, _ := newMachine(t, n)
	var sw0, tr0, sw1, tr1 uint64
	body := func(th *Thread) {
		for i := 0; i < 2000; i++ {
			if th.ID == 0 && i == 500 {
				sw0, tr0 = mc.switches, mc.transfers
			}
			if th.ID == 0 && i == 1500 {
				sw1, tr1 = mc.switches, mc.transfers
			}
			th.Work(10)
		}
	}
	bodies := make([]func(*Thread), n)
	for i := range bodies {
		bodies[i] = body
	}
	if err := mc.Run(bodies); err != nil {
		t.Fatal(err)
	}
	if tr1 == tr0 {
		t.Fatal("no transfers in the window")
	}
	return float64(sw1-sw0) / float64(tr1-tr0)
}

// A transfer to a thread off the chain is one coroutine switch; only a
// target deep in the chain costs the unwind.
func TestHandoffSwitchesPerTransfer(t *testing.T) {
	if got := switchesPerTransfer(t, 2); got != 1.0 {
		t.Errorf("ping-pong: %.3f switches per transfer, want 1.0", got)
	}
	if got := switchesPerTransfer(t, 4); got > 1.5 {
		t.Errorf("4-thread round-robin: %.3f switches per transfer, want <= 1.5", got)
	}
}

// Property: at every yield the cached keep decision equals the full rule
// (scan for the min-clock Ready thread, keep while within schedSlack of it
// and no timer is due), on random Load/Store/Work/Block/Unblock programs
// whose PostAccess hook and timer charge other threads' clocks.
func TestQuickCachedKeepMatchesFullRule(t *testing.T) {
	const n = 4
	defer func() { keepProbe = nil }()
	check := func(seed int64) bool {
		mc, _ := newMachine(t, n)
		rng := rand.New(rand.NewSource(seed))
		yields, mismatches := 0, 0
		keepProbe = func(th *Thread, keep bool) {
			yields++
			m := th.m
			next, _ := m.lowest(nil)
			full := next != nil &&
				(len(m.timers) == 0 || m.timers[0].at > next.clock) &&
				(next == th || th.clock <= next.clock+schedSlack)
			if keep != full {
				mismatches++
			}
		}
		charge := func() { mc.Thread(rng.Intn(n)).AddCost(int64(rng.Intn(60))) }
		mc.SetHooks(Hooks{PostAccess: func(*Thread, *Access, cache.Result) int64 {
			if rng.Intn(6) == 0 {
				charge()
			}
			return 0
		}})
		mc.AddTimer(200, 450, func(int64) { charge() })
		body := func(th *Thread) {
			prog := rand.New(rand.NewSource(seed*31 + int64(th.ID)))
			for i := 0; i < 200; i++ {
				addr := heapBase + uint64(prog.Intn(16))*8
				switch prog.Intn(6) {
				case 0:
					th.Load(1, addr, 8)
				case 1:
					th.Store(1, addr, 8, uint64(i))
				case 2:
					th.Work(int64(prog.Intn(40)))
				case 3:
					if th.ID != 0 { // thread 0 never blocks, so no deadlock
						th.Block()
					}
				case 4:
					th.Unblock(mc.Thread(prog.Intn(n)), int64(prog.Intn(30)))
				case 5:
					th.Work(int64(prog.Intn(4)))
				}
			}
			if th.ID != 0 {
				return
			}
			// Wake stragglers until every other thread has finished.
			for {
				live := false
				for _, o := range mc.Threads()[1:] {
					if o.State() == Blocked {
						th.Unblock(o, 10)
					}
					live = live || o.State() != Done
				}
				if !live {
					return
				}
				th.Work(25)
			}
		}
		if err := mc.Run([]func(*Thread){body, body, body, body}); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if yields == 0 || mismatches != 0 {
			t.Logf("seed %d: %d of %d keep decisions differ from the full rule", seed, mismatches, yields)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
