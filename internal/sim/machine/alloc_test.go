package machine

import (
	"testing"

	"repro/internal/raceflag"
)

// A steady-state instruction on a warm page must not allocate: translation
// is slot-indexed, the coherence directory is block-paged, the Access buffer
// is per-thread scratch, endStep carries no closure, and a token handoff is
// a bare coroutine switch.
func TestInstructionSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is meaningless under -race")
	}
	// Single-threaded, so every op stays inside one thread's keep test.
	t.Run("single-thread", func(t *testing.T) {
		mc, _ := benchMachine(1)
		var allocs float64
		err := mc.Run([]func(*Thread){func(th *Thread) {
			// Warm: touch the lines and fault the pages first.
			for i := uint64(0); i < 8; i++ {
				th.Store(1, heapBase+i*64, 8, i)
			}
			i := uint64(0)
			allocs = testing.AllocsPerRun(2000, func() {
				th.Store(1, heapBase+(i%8)*64, 8, i)
				th.Load(2, heapBase+(i%8)*64, 8)
				th.AtomicRMW(3, heapBase, 8, func(old uint64) uint64 { return old + 1 })
				th.Work(10)
				i++
			})
		}})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("steady-state instructions allocate %.1f/op, want 0", allocs)
		}
	})
	// Two threads storing to one line hand the token over on nearly every
	// instruction.
	t.Run("handoff", func(t *testing.T) {
		mc, _ := benchMachine(2)
		var allocs float64
		var transfers uint64
		done := false
		err := mc.Run([]func(*Thread){
			func(th *Thread) {
				for i := uint64(0); i < 64; i++ {
					th.Store(1, heapBase, 8, i)
				}
				before := mc.transfers
				i := uint64(0)
				allocs = testing.AllocsPerRun(2000, func() {
					th.Store(1, heapBase, 8, i)
					th.Work(20)
					i++
				})
				transfers = mc.transfers - before
				done = true
			},
			func(th *Thread) {
				for i := uint64(0); !done; i++ {
					th.Store(1, heapBase+8, 8, i)
					th.Work(20)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if transfers < 2000 {
			t.Errorf("%d transfers in 2000 ops, want a handoff-heavy steady state", transfers)
		}
		if allocs != 0 {
			t.Errorf("steady-state handoffs allocate %.1f/op, want 0", allocs)
		}
	})
}
