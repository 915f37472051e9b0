package workloads

import (
	"fmt"

	"repro/tmi/workload"
)

// spinlockpool reproduces the boost::detail::spinlock_pool bug: a pool of
// spinlocks packed into one cache line, indexed by pointer hash. Every
// lock/unlock by different threads on different locks invalidates the same
// line. TMI repairs it without page protection at all: its process-shared
// lock indirection moves the hot CAS word to a padded object, leaving only
// pointer reads on the packed line.
type spinlockpool struct {
	variant Variant
	iters   int

	pool    []workload.Mutex
	slots   uint64
	bar     workload.Barrier
	sSlot   workload.Site
	sSlotLd workload.Site
}

// Spinlockpool constructs the benchmark.
func Spinlockpool(v Variant) workload.Workload {
	return &spinlockpool{variant: v, iters: 4000}
}

var _ workload.Workload = (*spinlockpool)(nil)

const poolLocks = 8

func (s *spinlockpool) Name() string {
	if s.variant == VariantManual {
		return "spinlockpool-manual"
	}
	return "spinlockpool"
}

func (s *spinlockpool) Info() workload.Info {
	return workload.Info{
		Threads:         4,
		FootprintMB:     10,
		HasFalseSharing: s.variant == VariantFS,
		SyncHeavy:       true, // LASER keeps repair off: TSO + constant sync
		Desc:            "boost spinlock_pool: locks packed into one line",
	}
}

func (s *spinlockpool) Setup(env workload.Env) error {
	n := env.Threads()
	env.AllocBulk(int64(s.Info().FootprintMB) << 20) // the pool's client data
	stride := uint64(8)
	if s.variant == VariantManual {
		stride = 64 // the manual fix pads each lock to its own line
	}
	base := env.Alloc(int(stride)*poolLocks, 64)
	s.pool = s.pool[:0] // a re-run must not keep the previous run's handles
	for i := 0; i < poolLocks; i++ {
		s.pool = append(s.pool, env.NewMutexAt(fmt.Sprintf("spinlockpool.lock%d", i), base+uint64(i)*stride))
	}
	s.slots = env.Alloc(poolLocks*64, 64)
	s.bar = env.NewBarrier("spinlockpool.bar", n)
	s.sSlot = env.Site("spinlockpool.slot", workload.SiteStore, 8)
	s.sSlotLd = env.Site("spinlockpool.slot_load", workload.SiteLoad, 8)
	return nil
}

func (s *spinlockpool) Body(t workload.Thread) {
	rng := t.Rand()
	for i := 0; i < s.iters; i++ {
		k := rng.Intn(poolLocks)
		t.Lock(s.pool[k])
		slot := s.slots + uint64(k)*64
		t.Store(s.sSlot, slot, t.Load(s.sSlotLd, slot)+1)
		t.Unlock(s.pool[k])
		t.Work(120)
	}
	t.Wait(s.bar)
}

func (s *spinlockpool) Validate(env workload.Env) error {
	var total uint64
	for k := 0; k < poolLocks; k++ {
		total += env.Load(s.slots+uint64(k)*64, 8)
	}
	want := uint64(env.Threads() * s.iters)
	if total != want {
		return fmt.Errorf("spinlockpool: slot total %d, want %d (lock protection broken)", total, want)
	}
	return nil
}

// shptr reproduces the Boost shared_ptr microbenchmarks: reference-count
// manipulation on one page while unrelated false sharing runs on another
// page. The refcount updates use either relaxed atomics (Boost's default on
// modern platforms) or a mutex.
//
// The pair demonstrates what code-centric consistency buys: relaxed atomics
// need no PTSB flush, so the repair on the false-sharing page keeps its full
// benefit; the mutex variant forces a flush at every acquire and release,
// negating almost all of it (paper §4.3: 4.43x vs 1.04x).
type shptr struct {
	useLock bool
	variant Variant
	iters   int

	refcount uint64
	counters uint64
	stride   uint64
	mu       workload.Mutex
	bar      workload.Barrier

	sRef, sCtr workload.Site
	// The lock variant updates the refcount with plain accesses (the mutex
	// orders them), so it registers load/store sites; only the lock-free
	// variant's accesses are atomic instructions.
	sRefLd, sRefSt workload.Site
}

// ShptrRelaxed uses relaxed atomic refcounts.
func ShptrRelaxed(v Variant) workload.Workload {
	return &shptr{useLock: false, variant: v, iters: 25_000}
}

// ShptrLock protects the refcount with a pthread mutex.
func ShptrLock(v Variant) workload.Workload {
	return &shptr{useLock: true, variant: v, iters: 25_000}
}

var _ workload.Workload = (*shptr)(nil)

func (s *shptr) base() string {
	if s.useLock {
		return "shptr-lock"
	}
	return "shptr-relaxed"
}

func (s *shptr) Name() string {
	if s.variant == VariantManual {
		return s.base() + "-manual"
	}
	return s.base()
}

func (s *shptr) Info() workload.Info {
	return workload.Info{
		Threads:         4,
		FootprintMB:     10,
		UsesAtomics:     !s.useLock,
		HasFalseSharing: s.variant == VariantFS,
		SyncHeavy:       true,
		Desc:            "refcount page + separate false-sharing page",
	}
}

// refcountEvery controls how often the smart pointer is manipulated
// relative to the false-sharing accesses ("occasional" in the paper).
const refcountEvery = 32

func (s *shptr) Setup(env workload.Env) error {
	n := env.Threads()
	env.AllocBulk(int64(s.Info().FootprintMB) << 20) // the shared objects
	// Page one: the reference count.
	s.refcount = env.Alloc(64, int(uint64(env.PageSize())))
	if s.useLock {
		s.mu = env.NewMutex("shptr.refcount_mutex")
	}
	// Page two: per-thread counters, packed (fs) or padded (manual).
	if s.variant == VariantManual {
		s.stride = 64
	} else {
		s.stride = 8
	}
	s.counters = env.Alloc(int(s.stride)*n, int(uint64(env.PageSize())))
	s.bar = env.NewBarrier("shptr.bar", n)
	if s.useLock {
		s.sRefLd = env.Site("shptr.refcount_load", workload.SiteLoad, 8)
		s.sRefSt = env.Site("shptr.refcount_store", workload.SiteStore, 8)
	} else {
		s.sRef = env.Site("shptr.refcount", workload.SiteAtomic, 8)
	}
	s.sCtr = env.Site("shptr.counter", workload.SiteStore, 8)
	return nil
}

func (s *shptr) Body(t workload.Thread) {
	my := s.counters + uint64(t.ID())*s.stride
	for i := 0; i < s.iters; i++ {
		t.Store(s.sCtr, my, uint64(i+1))
		t.Work(25)
		if i%refcountEvery == 0 {
			if s.useLock {
				t.Lock(s.mu)
				t.Store(s.sRefSt, s.refcount, t.Load(s.sRefLd, s.refcount)+1)
				t.Unlock(s.mu)
			} else {
				t.AtomicAdd(s.sRef, s.refcount, 1, workload.Relaxed)
			}
		}
	}
	t.Wait(s.bar)
}

func (s *shptr) Validate(env workload.Env) error {
	n := env.Threads()
	for tid := 0; tid < n; tid++ {
		if got := env.Load(s.counters+uint64(tid)*s.stride, 8); got != uint64(s.iters) {
			return fmt.Errorf("%s: thread %d counter %d, want %d", s.base(), tid, got, s.iters)
		}
	}
	want := uint64(n) * uint64((s.iters+refcountEvery-1)/refcountEvery)
	if got := env.Load(s.refcount, 8); got != want {
		return fmt.Errorf("%s: refcount %d, want %d (atomicity broken)", s.base(), got, want)
	}
	return nil
}
