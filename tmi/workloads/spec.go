// Package workloads is the benchmark catalog of the reproduction: the 35
// workloads of the paper's detection suite (Phoenix, PARSEC, Splash2x,
// leveldb and the Boost microbenchmarks), the false-sharing repair suite of
// Figure 9, and the consistency kernels behind Figures 3, 11 and 12.
//
// The PARSEC/Splash-class workloads are instances of a parameterized kernel
// (spec) whose knobs — streamed footprint, compute per iteration, shared
// read-only tables, lock granularity, atomics, assembly regions, barriers —
// reproduce each benchmark's published sharing pattern. The benchmarks the
// paper discusses individually (histogram, linear-regression, stringmatch,
// lu-ncb, leveldb, the Boost microbenchmarks, canneal's swaps, cholesky's
// flags) are bespoke implementations in their own files.
package workloads

import (
	"fmt"

	"repro/tmi/workload"
)

// Variant selects a workload's memory layout.
type Variant int

// Variants.
const (
	// VariantFS is the published (buggy, false-sharing) layout.
	VariantFS Variant = iota
	// VariantManual applies the manual source fix (padding/alignment).
	VariantManual
	// VariantClean has no injected bug (leveldb as shipped).
	VariantClean
)

func (v Variant) String() string {
	switch v {
	case VariantFS:
		return "fs"
	case VariantManual:
		return "manual"
	case VariantClean:
		return "clean"
	}
	return "?"
}

// spec is the parameterized synthetic kernel behind the generic suite
// workloads.
type spec struct {
	name string
	info workload.Info

	iters         int   // iterations per thread
	workPerIter   int64 // compute cycles per iteration
	streamPerIter int64 // bytes of bulk streaming per iteration

	sharedROLoads   int  // loads/iter from a shared read-only table
	atomicsPerIter  int  // relaxed atomic increments on one shared counter
	hotLoads        int  // loads/iter from the shared counter line (true sharing)
	strongAtomics   bool // use seq_cst instead of relaxed
	asmEvery        int  // every N iters, one atomic increment inside asm
	swapEvery       int  // every N iters, one lock-free asm pair-swap (canneal)
	globalLockEvery int  // every N iters, one critical section on one lock
	rwReadEvery     int  // every N iters, read the shared index under an rwlock
	rwWriteEvery    int  // every N iters, update the shared index exclusively
	fineLocks       int  // >0: per-iter critical section on 1-of-N locks
	barrierEvery    int  // every N iters, a barrier
	privateStores   int  // stores/iter to a thread-private (padded) array

	// Populated by Setup.
	bulkBase   uint64
	roBase     uint64
	counter    uint64
	asmCounter uint64
	swapElems  uint64
	privBase   uint64
	lockSlots  uint64
	global     workload.Mutex
	fine       []workload.Mutex
	rw         workload.RWMutex
	bar        workload.Barrier

	sStream, sRO, sCtr, sHot, sAsm, sPriv, sSlot, sSwapA, sSwapB workload.Site
}

var _ workload.Workload = (*spec)(nil)

func (s *spec) Name() string { return s.name }

// Info derives the consistency-relevant traits from the kernel parameters,
// so a spec can never use atomics or assembly without declaring it.
func (s *spec) Info() workload.Info {
	info := s.info
	if s.atomicsPerIter > 0 {
		info.UsesAtomics = true
	}
	if s.asmEvery > 0 || s.swapEvery > 0 {
		info.UsesAsm = true
	}
	return info
}

const roTableBytes = 1 << 16

func (s *spec) Setup(env workload.Env) error {
	n := env.Threads()
	if s.info.FootprintMB > 0 {
		s.bulkBase = env.AllocBulk(int64(s.info.FootprintMB) << 20)
	}
	s.roBase = env.Alloc(roTableBytes, 64)
	s.counter = env.Alloc(8, 64)
	s.asmCounter = env.Alloc(8, 64)
	if s.swapEvery > 0 {
		s.swapElems = env.Alloc(specSwapElems*8, 64)
		for i := 0; i < specSwapElems; i++ {
			env.Store(s.swapElems+uint64(i)*8, 8, uint64(i+1))
		}
	}
	if s.privateStores > 0 {
		s.privBase = env.Alloc(n*256, 64) // 256B per thread: 4 lines, no FS
	}
	s.global = env.NewMutex(s.name + ".global")
	if s.rwReadEvery > 0 || s.rwWriteEvery > 0 {
		s.rw = env.NewRWMutex(s.name + ".index")
	}
	s.fine = s.fine[:0] // a re-run must not keep the previous run's handles
	if s.fineLocks > 0 {
		s.lockSlots = env.Alloc(s.fineLocks*64, 64)
		for i := 0; i < s.fineLocks; i++ {
			s.fine = append(s.fine, env.NewMutex(fmt.Sprintf("%s.fine%d", s.name, i)))
		}
	}
	s.bar = env.NewBarrier(s.name+".bar", n)

	s.sStream = env.Site(s.name+".stream", workload.SiteLoad, 8)
	s.sRO = env.Site(s.name+".ro_load", workload.SiteLoad, 8)
	s.sCtr = env.Site(s.name+".counter", workload.SiteAtomic, 8)
	s.sHot = env.Site(s.name+".hot_load", workload.SiteLoad, 8)
	s.sAsm = env.Site(s.name+".asm_counter", workload.SiteAtomic, 8)
	s.sSwapA = env.Site(s.name+".swap_a", workload.SiteAtomic, 8)
	s.sSwapB = env.Site(s.name+".swap_b", workload.SiteAtomic, 8)
	s.sPriv = env.Site(s.name+".private", workload.SiteStore, 8)
	s.sSlot = env.Site(s.name+".lock_slot", workload.SiteStore, 8)
	return nil
}

func (s *spec) Body(t workload.Thread) {
	n := t.NumThreads()
	rng := t.Rand()
	var part uint64
	var partSize int64
	if s.bulkBase != 0 {
		total := int64(s.info.FootprintMB) << 20
		partSize = total / int64(n)
		part = s.bulkBase + uint64(int64(t.ID())*partSize)
	}
	order := workload.Relaxed
	if s.strongAtomics {
		order = workload.SeqCst
	}
	var off int64
	for i := 0; i < s.iters; i++ {
		if s.streamPerIter > 0 && partSize > 0 {
			chunk := s.streamPerIter
			if off+chunk > partSize {
				off = 0
			}
			t.Stream(s.sStream, part+uint64(off), chunk, false)
			off += chunk
		}
		if s.workPerIter > 0 {
			t.Work(s.workPerIter)
		}
		for j := 0; j < s.sharedROLoads; j++ {
			addr := s.roBase + uint64(rng.Intn(roTableBytes/8))*8
			t.Load(s.sRO, addr)
		}
		for j := 0; j < s.atomicsPerIter; j++ {
			t.AtomicAdd(s.sCtr, s.counter, 1, order)
		}
		for j := 0; j < s.hotLoads; j++ {
			t.Load(s.sHot, s.counter+uint64(1+j%7)*8)
		}
		if s.asmEvery > 0 && i%s.asmEvery == 0 {
			t.EnterAsm()
			t.AtomicAdd(s.sAsm, s.asmCounter, 1, workload.SeqCst)
			t.ExitAsm()
		}
		if s.swapEvery > 0 && i%s.swapEvery == 0 {
			a := rng.Intn(specSwapElems)
			b := rng.Intn(specSwapElems)
			if a != b {
				t.AsmAtomicSwap(s.sSwapA, s.sSwapB, s.swapElems+uint64(a)*8, s.swapElems+uint64(b)*8)
			}
		}
		if s.rwReadEvery > 0 && i%s.rwReadEvery == 0 {
			t.RLock(s.rw)
			t.Load(s.sRO, s.roBase+uint64(rng.Intn(roTableBytes/8))*8)
			t.RUnlock(s.rw)
		}
		if s.rwWriteEvery > 0 && i%s.rwWriteEvery == 0 {
			t.WLock(s.rw)
			t.Store(s.sSlot, s.roBase, uint64(i))
			t.WUnlock(s.rw)
		}
		if s.fineLocks > 0 {
			k := rng.Intn(s.fineLocks)
			t.Lock(s.fine[k])
			slot := s.lockSlots + uint64(k)*64
			t.Store(s.sSlot, slot, t.Load(s.sRO, slot)+1)
			t.Unlock(s.fine[k])
		}
		if s.globalLockEvery > 0 && i%s.globalLockEvery == 0 {
			t.Lock(s.global)
			slot := s.lockSlots
			if slot == 0 {
				slot = s.roBase // reuse a line; value unchecked
				t.Load(s.sRO, slot)
			} else {
				t.Store(s.sSlot, slot, t.Load(s.sRO, slot)+1)
			}
			t.Unlock(s.global)
		}
		if s.privateStores > 0 {
			base := s.privBase + uint64(t.ID())*256
			for j := 0; j < s.privateStores; j++ {
				t.Store(s.sPriv, base+uint64((i+j)%32)*8, uint64(i))
			}
		}
		if s.barrierEvery > 0 && (i+1)%s.barrierEvery == 0 {
			t.Wait(s.bar)
		}
	}
	t.Wait(s.bar)
}

func (s *spec) Validate(env workload.Env) error {
	n := env.Threads()
	if s.atomicsPerIter > 0 {
		want := uint64(n * s.iters * s.atomicsPerIter)
		got := env.Load(s.counter, 8)
		if got != want {
			return fmt.Errorf("%s: shared atomic counter %d, want %d (lost updates)", s.name, got, want)
		}
	}
	if s.asmEvery > 0 {
		want := uint64(n) * uint64((s.iters+s.asmEvery-1)/s.asmEvery)
		got := env.Load(s.asmCounter, 8)
		if got != want {
			return fmt.Errorf("%s: asm atomic counter %d, want %d (lost updates)", s.name, got, want)
		}
	}
	if s.swapEvery > 0 {
		seen := make(map[uint64]bool, specSwapElems)
		for i := 0; i < specSwapElems; i++ {
			v := env.Load(s.swapElems+uint64(i)*8, 8)
			if v < 1 || v > specSwapElems || seen[v] {
				return fmt.Errorf("%s: swap elements no longer a permutation (slot %d = %d)", s.name, i, v)
			}
			seen[v] = true
		}
	}
	return nil
}

// specSwapElems sizes the lock-free swap array (canneal's netlist slice).
const specSwapElems = 128
