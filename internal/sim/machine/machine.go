// Package machine implements the simulated multicore: threads pinned to
// cores, a deterministic min-clock discrete-event scheduler, the instruction
// API that workload programs execute (loads, stores, atomics, streaming,
// compute), simulated-time timers, and the hook points the TMI runtime
// attaches to (fault handling, address-space selection, access sampling,
// consistency-region callbacks).
//
// Each simulated thread runs as a coroutine, but only one thread executes at
// a time, always the runnable thread with the smallest local clock, so every
// run is deterministic for a fixed seed: memory operations are globally
// ordered by simulated time, which is what makes the coherence simulation
// and the consistency experiments reproducible.
//
// The token moves by direct handoff from thread to thread (see Run), and
// between transfers the running thread keeps it through an O(1) test
// against one cached rival, the lowest-clock ready thread other than itself.
package machine

import (
	"container/heap"
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/sim/cache"
	"repro/internal/sim/mem"
)

// Config configures a Machine.
type Config struct {
	Cores int
	Seed  int64
	Mem   *mem.Memory
	Cache *cache.System
}

// Access describes one memory instruction as it flows through the hooks.
type Access struct {
	PC     uint64
	Addr   uint64 // virtual address
	Size   int
	Write  bool
	Atomic bool
}

// RegionKind tags code-region boundaries for code-centric consistency.
type RegionKind uint8

// Region kinds (paper §3.4). RegionAtomicStrong is the seq_cst atomic
// region; the remaining C11 orderings and standalone fences follow. The
// numeric values of the original three kinds are frozen: traces serialize
// the kind as a raw integer.
const (
	RegionAtomicRelaxed RegionKind = iota
	RegionAtomicStrong
	RegionAsm
	RegionAtomicAcquire
	RegionAtomicRelease
	RegionAtomicAcqRel
	RegionFenceAcquire
	RegionFenceRelease
	RegionFenceAcqRel
	RegionFenceSeqCst
)

func (k RegionKind) String() string {
	switch k {
	case RegionAtomicRelaxed:
		return "atomic-relaxed"
	case RegionAtomicStrong:
		return "atomic-seqcst"
	case RegionAsm:
		return "asm"
	case RegionAtomicAcquire:
		return "atomic-acquire"
	case RegionAtomicRelease:
		return "atomic-release"
	case RegionAtomicAcqRel:
		return "atomic-acqrel"
	case RegionFenceAcquire:
		return "fence-acquire"
	case RegionFenceRelease:
		return "fence-release"
	case RegionFenceAcqRel:
		return "fence-acqrel"
	case RegionFenceSeqCst:
		return "fence-seqcst"
	}
	return "?"
}

// IsAtomic reports whether k brackets an atomic instruction (as opposed to
// an assembly region or a standalone fence).
func (k RegionKind) IsAtomic() bool {
	switch k {
	case RegionAtomicRelaxed, RegionAtomicStrong, RegionAtomicAcquire,
		RegionAtomicRelease, RegionAtomicAcqRel:
		return true
	}
	return false
}

// IsFence reports whether k is a standalone fence region.
func (k RegionKind) IsFence() bool {
	switch k {
	case RegionFenceAcquire, RegionFenceRelease, RegionFenceAcqRel,
		RegionFenceSeqCst:
		return true
	}
	return false
}

// Acquires reports whether k carries acquire semantics (joins published
// state). Asm regions conservatively acquire and release, matching the
// paper's Table 2 treatment of opaque assembly.
func (k RegionKind) Acquires() bool {
	switch k {
	case RegionAtomicStrong, RegionAsm, RegionAtomicAcquire,
		RegionAtomicAcqRel, RegionFenceAcquire, RegionFenceAcqRel,
		RegionFenceSeqCst:
		return true
	}
	return false
}

// Releases reports whether k carries release semantics (publishes prior
// state).
func (k RegionKind) Releases() bool {
	switch k {
	case RegionAtomicStrong, RegionAsm, RegionAtomicRelease,
		RegionAtomicAcqRel, RegionFenceRelease, RegionFenceAcqRel,
		RegionFenceSeqCst:
		return true
	}
	return false
}

// Hooks are the runtime attachment points. All hooks run in the context of
// the executing thread with the machine quiescent (no other thread running),
// so they may inspect and mutate runtime state freely but must not block.
type Hooks struct {
	// SpaceFor selects the address space an access resolves through.
	// Nil or returning nil means the thread's current space. TMI uses this
	// to route atomics and assembly regions to the always-shared view.
	SpaceFor func(t *Thread, acc *Access) *mem.AddrSpace
	// OnFault handles a protection fault. Returning handled=true retries the
	// access once; cost is charged to the thread either way.
	OnFault func(t *Thread, acc *Access, f *mem.Fault) (handled bool, cost int64)
	// PostAccess observes every completed access (PEBS sampling) and may
	// charge extra cycles.
	PostAccess func(t *Thread, acc *Access, res cache.Result) (extra int64)
	// RegionEnter/RegionExit observe code-centric consistency boundaries.
	RegionEnter func(t *Thread, k RegionKind)
	RegionExit  func(t *Thread, k RegionKind)
	// OnFirstTouch charges the page-fault cost for a first touch of a page
	// (or a COW copy). If nil, DefaultFaultCost is used.
	OnFirstTouch func(t *Thread, tr mem.Translation) (cost int64)
	// OnValue observes the data value of every completed access, after the
	// data operation: the value loaded (for loads and the old value of
	// RMW/CAS) or the value stored. Unlike PostAccess it sees the datum, so
	// a model checker can log per-thread observed values.
	OnValue func(t *Thread, acc *Access, val uint64)
	// OnWake observes t unblocking (or depositing a wake permit for) other —
	// the scheduler-level happens-before edge a race detector needs.
	OnWake func(t, other *Thread)
}

// Scheduler is an external scheduling strategy. When installed via
// SetScheduler it replaces the default min-clock policy entirely: at every
// scheduling point the machine calls Pick with the runnable threads (sorted
// by ID, never empty) and runs the returned thread next. Clock-slack
// batching is disabled so every instruction is a scheduling point — the
// interleaving is exactly the sequence of Pick results, which is what lets
// a model checker enumerate schedules. Returning nil abandons the run: the
// machine aborts with ErrScheduleAbandoned (how DPOR prunes sleep-blocked
// interleavings).
type Scheduler interface {
	Pick(ready []*Thread) *Thread
}

// ErrScheduleAbandoned reports that the installed Scheduler gave up on the
// run by returning nil from Pick.
var ErrScheduleAbandoned = errors.New("machine: schedule abandoned by scheduler")

// DefaultFaultCost is the minor page-fault cost when no OnFirstTouch hook is
// installed.
const DefaultFaultCost = 3000

// schedSlack is the scheduler's clock tolerance: a thread keeps executing
// while no runnable thread is more than this many cycles behind it. It is
// chosen below the cheapest cross-core latency (LatUpgrade/LatLLC = 40), so
// batched execution can only reorder same-core L1 hits.
const schedSlack = 4

// ThreadState is a thread's scheduler state.
type ThreadState uint8

// Thread states.
const (
	Ready ThreadState = iota
	Blocked
	Done
)

// ThreadStats counts per-thread activity.
type ThreadStats struct {
	Instructions uint64
	MemOps       uint64
	HITM         uint64
	Faults       uint64
	FirstTouches uint64
}

// Thread is one simulated hardware thread, pinned 1:1 to a core.
type Thread struct {
	ID   int
	Core int

	m     *Machine
	space *mem.AddrSpace
	clock int64
	state ThreadState
	rng   *rand.Rand

	// resume/stop/yieldTok are the coroutine handles (iter.Pull) the token
	// moves with: a coroutine switch transfers control directly between
	// goroutines, without a Go scheduler round trip. onChain marks a thread
	// parked inside another thread's resume; it is reached by unwinding,
	// never resumed.
	resume   func() (struct{}, bool)
	stop     func()
	yieldTok func(struct{}) bool
	onChain  bool

	// User carries runtime-private per-thread state (CCC region nesting,
	// PTSB dirty sets). The machine never inspects it.
	User any

	Stats ThreadStats

	// permits/pendingWake implement race-free wakeups: an Unblock that
	// arrives before the target's Block deposits a permit instead.
	permits     int
	pendingWake int64

	// scratch/scratchB are the per-thread Access buffers the instruction
	// methods reuse, so steady-state ops allocate nothing. Hooks receive a
	// pointer into them and must not retain it past the hook call.
	scratch  Access
	scratchB Access

	body func(*Thread)
}

// Machine is the simulated multicore.
type Machine struct {
	cfg     Config
	cacheS  *cache.System
	threads []*Thread
	hooks   Hooks
	sched   Scheduler

	mu      sync.Mutex
	timers  timerHeap
	started bool
	failure error
	aborted atomic.Bool

	nextTimerID int

	// Token handoff state, touched only by the running thread (or by the
	// driver while no thread runs). holder is the thread last granted the
	// token and rival its cached competitor: the lowest-(clock, ID) Ready
	// thread other than holder, nil if none. target is where control goes
	// next, nil meaning the driver. switches and transfers count coroutine
	// switches and holder changes.
	holder, rival, target *Thread
	switches, transfers   uint64
}

type timer struct {
	id     int
	at     int64
	period int64 // 0 = one-shot
	fn     func(now int64)
}

// timerHeap is a min-heap of timers ordered by (at, id): earliest deadline
// first, insertion order among ties. The id tiebreak is what makes
// same-deadline firing order deterministic — the old sort-on-insert list
// ordered ties arbitrarily.
type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].id < h[j].id
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// New constructs a machine with cfg.Cores threads ready to run.
func New(cfg Config) *Machine {
	if cfg.Cores < 1 {
		panic("machine: need at least one core")
	}
	if cfg.Cache == nil {
		cfg.Cache = cache.New(cfg.Cores)
	}
	m := &Machine{cfg: cfg, cacheS: cfg.Cache}
	for i := 0; i < cfg.Cores; i++ {
		m.threads = append(m.threads, &Thread{
			ID:   i,
			Core: i,
			m:    m,
			rng:  rand.New(rand.NewSource(cfg.Seed*7919 + int64(i) + 1)),
		})
	}
	return m
}

// SetHooks installs the runtime hooks. Must be called before Run.
func (m *Machine) SetHooks(h Hooks) { m.hooks = h }

// SetScheduler installs an external scheduling strategy (nil restores the
// default min-clock policy). Must be called before Run.
func (m *Machine) SetScheduler(s Scheduler) { m.sched = s }

// Cache returns the coherence system.
func (m *Machine) Cache() *cache.System { return m.cacheS }

// Threads returns the machine's threads.
func (m *Machine) Threads() []*Thread { return m.threads }

// Thread returns thread i.
func (m *Machine) Thread(i int) *Thread { return m.threads[i] }

// AddTimer schedules fn at simulated time at; if period > 0 it repeats.
// Timers fire at scheduling boundaries, with all threads quiescent.
func (m *Machine) AddTimer(at, period int64, fn func(now int64)) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextTimerID++
	t := &timer{id: m.nextTimerID, at: at, period: period, fn: fn}
	heap.Push(&m.timers, t)
	return t.id
}

// RemoveTimer cancels a timer by id.
func (m *Machine) RemoveTimer(id int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, t := range m.timers {
		if t.id == id {
			heap.Remove(&m.timers, i)
			return
		}
	}
}

// Run executes bodies, one per thread (len(bodies) must not exceed the core
// count; extra cores stay idle). It blocks until all threads finish and
// returns the first failure (panic in a body, deadlock) if any.
//
// Every thread body runs as a coroutine (iter.Pull), and exactly one
// goroutine executes at any moment, so the whole simulation is sequential.
// The driver — the Run caller's goroutine — resumes the first thread. From
// then on a thread that gives up the token calls decide and resumes the
// chosen thread itself; iter.Pull allows next from any goroutine as long as
// calls do not overlap. Resumed threads form a chain, driver → T1 → … → Tk,
// each parked inside its successor's resume. A target off the chain is
// resumed directly (one switch); a target on the chain, or the driver, is
// reached by unwinding: each thread above it yields back down. Control
// unwinds to the driver only when a timer is due, when a thread finishes or
// no thread is runnable, or on abort, so the driver fires timers with every
// thread quiescent and reports completion or deadlock. After an abort it
// stops every coroutine; the chain is empty whenever the driver runs.
func (m *Machine) Run(bodies []func(*Thread)) error {
	if len(bodies) > len(m.threads) {
		return fmt.Errorf("machine: %d bodies for %d cores", len(bodies), len(m.threads))
	}
	if m.started {
		return fmt.Errorf("machine: Run called twice")
	}
	m.started = true
	var live []*Thread
	for i, t := range m.threads {
		if i < len(bodies) {
			t.body = bodies[i]
			t.state = Ready
			live = append(live, t)
		} else {
			t.state = Done
		}
	}
	for _, t := range live {
		t := t
		t.resume, t.stop = iter.Pull(func(yieldTok func(struct{}) bool) {
			t.yieldTok = yieldTok
			// A coroutine started only so it can unwind (the machine
			// aborted before this thread ever ran) must not execute its
			// body.
			if !m.aborted.Load() {
				func() {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(abortSentinel); ok {
								return // controlled unwind after machine abort
							}
							if m.failure == nil {
								m.failure = fmt.Errorf("machine: thread %d panic: %v", t.ID, r)
							}
							m.aborted.Store(true)
						}
					}()
					t.body(t)
				}()
			}
			t.state = Done
			m.target = nil // unwind to the driver, which decides who runs next
		})
	}
	// Guarantee coroutine cleanup on every exit path: stop() unwinds a
	// thread parked at a yield (its yieldTok returns false and it panics out
	// via abortSentinel) and is a no-op on finished threads.
	defer func() {
		for _, t := range live {
			t.stop()
		}
	}()

	// The driver loop. A panic here can only come from a timer callback
	// (body and hook panics are recovered inside the coroutine); record it
	// as the run's failure like any other crash.
	func() {
		defer func() {
			if r := recover(); r != nil {
				if m.failure == nil {
					m.failure = fmt.Errorf("machine: panic: %v", r)
				}
				m.aborted.Store(true)
			}
		}()
		for !m.aborted.Load() {
			if m.target = m.decide(m.holder, true); m.target == nil {
				break
			}
			m.switches++
			m.target.resume()
		}
	}()
	return m.failure
}

// decide is the scheduling rule, shared by the driver and the threads. prev
// is the thread giving up the token (nil at the start). It returns the
// thread to run next — the min-clock thread, except that prev keeps the
// token while within schedSlack cycles of the true minimum, or whatever the
// external Scheduler picks, with no slack batching — makes it the holder
// and caches its rival. It returns nil when control must go to the driver:
// a timer is due (only the driver, driver=true, fires it here and decides
// again), every thread is done, the run deadlocked, or the Scheduler
// abandoned it.
func (m *Machine) decide(prev *Thread, driver bool) *Thread {
	for {
		first, second := m.lowest(nil)
		// Fire timers due before the next thread would run. Timers advance
		// only with thread progress: once no thread is runnable, remaining
		// timers never fire.
		if first != nil && len(m.timers) > 0 && m.timers[0].at <= first.clock {
			if !driver {
				return nil
			}
			due := heap.Pop(&m.timers).(*timer)
			due.fn(due.at)
			if due.period > 0 {
				due.at += due.period
				heap.Push(&m.timers, due)
			}
			continue // re-evaluate: the timer may have changed thread states
		}
		if first == nil {
			// Nothing runnable: either everyone is done, or deadlock.
			for _, th := range m.threads {
				if th.state == Blocked {
					if m.failure == nil {
						at := int64(0)
						if prev != nil {
							at = prev.clock
						}
						m.failure = fmt.Errorf("machine: deadlock — all live threads blocked at t=%d", at)
					}
					m.aborted.Store(true)
					break
				}
			}
			return nil
		}
		next, rival := first, second
		if m.sched != nil {
			// Every yield is a scheduling point, so the rival is unused.
			next, rival = m.sched.Pick(m.readyThreads()), nil
			if next == nil {
				if m.failure == nil {
					m.failure = ErrScheduleAbandoned
				}
				m.aborted.Store(true)
				return nil
			}
		} else if prev != nil && prev != first && prev.state == Ready && prev.clock <= first.clock+schedSlack {
			// Slack: schedSlack is below every coherence latency, so only
			// local L1 hits batch — cross-core event ordering is unaffected
			// — while switches drop by an order of magnitude.
			next, rival = prev, first
		}
		if next != m.holder {
			m.transfers++
		}
		m.holder, m.rival = next, rival
		return next
	}
}

// yield is a thread-side scheduling point. Only the token holder executes
// here, so the keep test reads the cached rival and the timer heap without
// synchronization: every prior mutation happened on this goroutine or
// before a coroutine switch (a happens-before edge). The thread keeps the
// token while it is within schedSlack cycles of its rival and no timer is
// due before the next thread would run. Otherwise it decides who runs next
// and hands control over. With an external Scheduler there is no keep
// test: every yield is a scheduling point.
func (m *Machine) yield(t *Thread) {
	if m.sched == nil && t.state == Ready {
		keep := m.keeps(t)
		if keepProbe != nil {
			keepProbe(t, keep)
		}
		if keep {
			return
		}
	}
	m.target = m.decide(t, false)
	m.follow(t)
}

// keepProbe, when set, observes every keep test; tests use it to check the
// cached decision against the full scan.
var keepProbe func(t *Thread, keep bool)

// keeps is the O(1) keep test for the holder t.
func (m *Machine) keeps(t *Thread) bool {
	next := t.clock
	if r := m.rival; r != nil {
		if t.clock > r.clock+schedSlack {
			return false
		}
		next = min(next, r.clock)
	}
	return len(m.timers) == 0 || m.timers[0].at > next
}

// follow moves control toward m.target from t, the thread on top of the
// chain, and returns once t is the target again.
func (m *Machine) follow(t *Thread) {
	for m.target != t {
		if next := m.target; next != nil && !next.onChain {
			// Off the chain: resume it directly. t stays parked inside the
			// call until the chain unwinds back to it.
			t.onChain = true
			m.switches++
			next.resume()
			t.onChain = false
			if m.aborted.Load() {
				// A thread above failed or the run deadlocked: unwind by
				// panicking out to this coroutine's wrapper. No thread is
				// ever resumed into an aborted run, so this is the only
				// abort check a thread needs.
				panic(abortSentinel{})
			}
			continue
		}
		// The target is further down the chain, or is the driver: unwind
		// one level. t is resumed again only as a target.
		m.switches++
		if !t.yieldTok(struct{}{}) {
			// Run's cleanup stopped this coroutine: unwind to its wrapper.
			panic(abortSentinel{})
		}
	}
}

// Elapsed reports the simulated run time: the maximum thread clock.
func (m *Machine) Elapsed() int64 {
	var max int64
	for _, t := range m.threads {
		if t.clock > max {
			max = t.clock
		}
	}
	return max
}

// ElapsedSeconds converts Elapsed to seconds at the simulated clock rate.
func (m *Machine) ElapsedSeconds() float64 {
	return float64(m.Elapsed()) / float64(cache.ClockHz)
}

// lowest returns the two Ready threads with the smallest (clock, ID),
// skipping skip.
func (m *Machine) lowest(skip *Thread) (first, second *Thread) {
	for _, t := range m.threads {
		if t.state != Ready || t == skip {
			continue
		}
		if first == nil || before(t, first) {
			first, second = t, first
		} else if second == nil || before(t, second) {
			second = t
		}
	}
	return first, second
}

// before orders threads for scheduling: lower clock first, then lower ID.
func before(a, b *Thread) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.ID < b.ID)
}

// readyThreads returns the runnable threads in ID order.
func (m *Machine) readyThreads() []*Thread {
	var out []*Thread
	for _, th := range m.threads {
		if th.state == Ready {
			out = append(out, th)
		}
	}
	return out
}

type abortSentinel struct{}

// Fail aborts the run with err the next time the failing thread yields.
func (m *Machine) Fail(err error) {
	m.mu.Lock()
	if m.failure == nil {
		m.failure = err
	}
	m.mu.Unlock()
}
