package machine

import (
	"fmt"
	"math/rand"

	"repro/internal/sim/cache"
	"repro/internal/sim/mem"
)

// SetSpace installs the thread's address space. Called at startup and again
// at thread-to-process conversion.
func (t *Thread) SetSpace(s *mem.AddrSpace) { t.space = s }

// Space returns the thread's current address space.
func (t *Thread) Space() *mem.AddrSpace { return t.space }

// SetCore re-pins the thread to a different core mid-run (the `map`
// repair backend's thread-and-data mapping). The coherence fabric sees
// subsequent accesses under the new identity; MESI state left under the
// old core ages out through the normal protocol (at most one extra
// transfer per still-owned line).
func (t *Thread) SetCore(core int) {
	if core < 0 || core >= t.m.cacheS.NumCores() {
		panic(fmt.Sprintf("machine: SetCore(%d) out of range", core))
	}
	t.Core = core
}

// Clock returns the thread's local simulated time in cycles.
func (t *Thread) Clock() int64 { return t.clock }

// AddCost charges cycles to the thread without executing an instruction
// (used by the runtime to model interruptions such as ptrace stops). A
// charge to a thread other than the token holder (a stop-the-world charge)
// re-derives the holder's rival.
func (t *Thread) AddCost(cycles int64) {
	t.clock += cycles
	if m := t.m; t != m.holder {
		m.rival, _ = m.lowest(m.holder)
	}
}

// Rand returns the thread's deterministic random source.
func (t *Thread) Rand() *rand.Rand { return t.rng }

// Machine returns the owning machine.
func (t *Thread) Machine() *Machine { return t.m }

// endStep charges an instruction's latency and hands over the token if the
// thread is no longer minimal. The instruction methods below inline their
// work and finish through here instead of wrapping it in a closure: the old
// step(func() int64) pattern cost one closure allocation per instruction,
// which dominated the steady-state profile.
func (t *Thread) endStep(lat int64) {
	t.clock += lat
	t.Stats.Instructions++
	t.m.yield(t)
}

// Work advances the thread's clock by cycles of pure computation (no memory
// traffic). Large quanta are how workloads represent their non-shared work.
func (t *Thread) Work(cycles int64) {
	if cycles < 0 {
		panic("machine: negative work")
	}
	t.endStep(cycles)
}

// Fence models a memory fence.
func (t *Thread) Fence() {
	t.endStep(20)
}

// Load performs a load of size bytes at addr and returns the value
// (little-endian, size in {1,2,4,8}).
func (t *Thread) Load(pc, addr uint64, size int) uint64 {
	acc := &t.scratch
	*acc = Access{PC: pc, Addr: addr, Size: size}
	lat, tr := t.access(acc)
	v := mem.LoadUint(tr, size)
	t.onValue(acc, v)
	t.endStep(lat)
	return v
}

// Store performs a store of size bytes at addr.
func (t *Thread) Store(pc, addr uint64, size int, val uint64) {
	acc := &t.scratch
	*acc = Access{PC: pc, Addr: addr, Size: size, Write: true}
	lat, tr := t.access(acc)
	mem.StoreUint(tr, size, val)
	t.onValue(acc, val)
	t.endStep(lat)
}

// AtomicRMW performs an atomic read-modify-write at addr: fn maps the old
// value to the new value; the old value is returned. The access carries the
// Atomic flag so the runtime can route it per code-centric consistency.
func (t *Thread) AtomicRMW(pc, addr uint64, size int, fn func(old uint64) uint64) uint64 {
	acc := &t.scratch
	*acc = Access{PC: pc, Addr: addr, Size: size, Write: true, Atomic: true}
	lat, tr := t.access(acc)
	old := mem.LoadUint(tr, size)
	mem.StoreUint(tr, size, fn(old))
	t.onValue(acc, old)
	t.endStep(lat)
	return old
}

// AtomicLoad performs an atomic load (coherence-wise a plain load, but
// carrying the Atomic flag so the runtime routes it to shared memory).
func (t *Thread) AtomicLoad(pc, addr uint64, size int) uint64 {
	acc := &t.scratch
	*acc = Access{PC: pc, Addr: addr, Size: size, Atomic: true}
	lat, tr := t.access(acc)
	v := mem.LoadUint(tr, size)
	t.onValue(acc, v)
	t.endStep(lat)
	return v
}

// AtomicStore performs an atomic store.
func (t *Thread) AtomicStore(pc, addr uint64, size int, val uint64) {
	acc := &t.scratch
	*acc = Access{PC: pc, Addr: addr, Size: size, Write: true, Atomic: true}
	lat, tr := t.access(acc)
	mem.StoreUint(tr, size, val)
	t.onValue(acc, val)
	t.endStep(lat)
}

// AtomicCAS performs a compare-and-swap, returning whether it succeeded.
func (t *Thread) AtomicCAS(pc, addr uint64, size int, old, new uint64) bool {
	acc := &t.scratch
	*acc = Access{PC: pc, Addr: addr, Size: size, Write: true, Atomic: true}
	lat, tr := t.access(acc)
	cur := mem.LoadUint(tr, size)
	ok := false
	if cur == old {
		mem.StoreUint(tr, size, new)
		ok = true
	}
	t.onValue(acc, cur)
	t.endStep(lat)
	return ok
}

// AtomicPairSwap atomically exchanges the size-byte values at addrA and
// addrB in one indivisible step — the model of a lock-free assembly
// pair-swap (canneal's atomic pointer swap). Both accesses carry the Atomic
// flag; under a runtime that fails to route them to shared memory the swap
// operates on stale private copies, which is exactly the corruption of the
// paper's Figure 11.
func (t *Thread) AtomicPairSwap(pcA, pcB, addrA, addrB uint64, size int) {
	accA := &t.scratch
	accB := &t.scratchB
	*accA = Access{PC: pcA, Addr: addrA, Size: size, Write: true, Atomic: true}
	*accB = Access{PC: pcB, Addr: addrB, Size: size, Write: true, Atomic: true}
	latA, trA := t.access(accA)
	latB, trB := t.access(accB)
	va := mem.LoadUint(trA, size)
	vb := mem.LoadUint(trB, size)
	mem.StoreUint(trA, size, vb)
	mem.StoreUint(trB, size, va)
	t.onValue(accA, va)
	t.onValue(accB, vb)
	t.endStep(latA + latB)
}

// onValue reports a completed access's datum to the OnValue hook.
func (t *Thread) onValue(acc *Access, val uint64) {
	if h := t.m.hooks.OnValue; h != nil {
		h(t, acc, val)
	}
}

// access resolves and executes one memory access: address-space selection,
// fault handling with one retry, coherence simulation, first-touch cost and
// post-access sampling. It returns the total latency and the translation the
// data operation should use.
func (t *Thread) access(acc *Access) (int64, mem.Translation) {
	t.Stats.MemOps++
	space := t.space
	if h := t.m.hooks.SpaceFor; h != nil {
		if s := h(t, acc); s != nil {
			space = s
		}
	}
	var total int64
	tr, fault := space.Translate(acc.Addr, acc.Write)
	if fault != nil {
		t.Stats.Faults++
		if h := t.m.hooks.OnFault; h != nil {
			handled, cost := h(t, acc, fault)
			total += cost
			if handled {
				tr, fault = space.Translate(acc.Addr, acc.Write)
			}
		}
		if fault != nil {
			panic(fmt.Sprintf("machine: unhandled %v by thread %d (pc=0x%x)", fault, t.ID, acc.PC))
		}
	}
	if tr.FirstTouch || tr.CowCopied {
		t.Stats.FirstTouches++
		if h := t.m.hooks.OnFirstTouch; h != nil {
			total += h(t, tr)
		} else {
			total += DefaultFaultCost
		}
	}
	res := t.m.cacheS.Access(t.Core, tr.Phys, acc.Size, acc.Write, acc.Atomic)
	if res.HITM {
		t.Stats.HITM++
	}
	total += res.Latency
	if h := t.m.hooks.PostAccess; h != nil {
		total += h(t, acc, res)
	}
	return total, tr
}

// Stream models a sequential sweep over nbytes at base (a bulk region or a
// regular mapping) with prefetch-friendly cost and page-fault accounting,
// without materializing data or coherence state. Used for the large private
// datasets of the PARSEC/Splash-class workloads.
func (t *Thread) Stream(pc, base uint64, nbytes int64, write bool) {
	if nbytes <= 0 {
		return
	}
	lines := (nbytes + cache.LineSize - 1) / cache.LineSize
	lat := lines * cache.LatStream
	if r := t.space.BulkAt(base); r != nil {
		if faults := r.TouchRange(base, uint64(nbytes), uint64(t.space.PageSize())); faults > 0 {
			var per int64 = DefaultFaultCost
			if h := t.m.hooks.OnFirstTouch; h != nil {
				per = h(t, mem.Translation{FirstTouch: true})
			}
			lat += faults * per
			t.Stats.FirstTouches += uint64(faults)
		}
	}
	t.Stats.MemOps += uint64(lines)
	t.endStep(lat)
}

// EnterRegion and ExitRegion mark code-centric consistency boundaries
// (compiler-inserted callbacks in the paper; emitted by the workload
// framework here).
func (t *Thread) EnterRegion(k RegionKind) {
	if h := t.m.hooks.RegionEnter; h != nil {
		h(t, k)
	}
}

// ExitRegion closes a region opened by EnterRegion.
func (t *Thread) ExitRegion(k RegionKind) {
	if h := t.m.hooks.RegionExit; h != nil {
		h(t, k)
	}
}

// Block parks the thread (scheduler-level, e.g. waiting on a contended
// mutex). It returns when another thread calls Unblock and the scheduler
// grants the token back. A wake permit deposited before Block (an Unblock
// that raced ahead of the Block) is consumed immediately without parking.
func (t *Thread) Block() {
	if t.permits > 0 {
		t.permits--
		if t.pendingWake > t.clock {
			t.clock = t.pendingWake
		}
		t.m.yield(t)
		return
	}
	t.state = Blocked
	t.m.yield(t)
}

// Unblock makes other runnable again, advancing its clock to at least the
// waker's time plus wakeCost (a blocked thread cannot observe the past).
// If other has not blocked yet, a wake permit is deposited for its next
// Block, so wakeups are never lost.
func (t *Thread) Unblock(other *Thread, wakeCost int64) {
	if h := t.m.hooks.OnWake; h != nil {
		h(t, other)
	}
	w := t.clock + wakeCost
	if other.state != Blocked {
		other.permits++
		if w > other.pendingWake {
			other.pendingWake = w
		}
		return
	}
	if w > other.clock {
		other.clock = w
	}
	other.state = Ready
	if m := t.m; other != m.holder && (m.rival == nil || before(other, m.rival)) {
		m.rival = other
	}
}

// State reports the thread's scheduler state.
func (t *Thread) State() ThreadState { return t.state }
