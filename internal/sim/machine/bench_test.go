package machine

import (
	"testing"

	"repro/internal/sim/mem"
)

func benchMachine(n int) (*Machine, *mem.AddrSpace) {
	m := mem.NewMemory(mem.PageSize4K)
	f := m.NewFile("shm")
	as := mem.NewAddrSpace(m)
	as.Map(heapBase, 16, f, 0, false, mem.ProtRW)
	mc := New(Config{Cores: n, Seed: 1, Mem: m})
	for _, th := range mc.Threads() {
		th.SetSpace(as)
	}
	return mc, as
}

// BenchmarkAccessLatencyL1 measures the single-access fast path: one
// thread re-reading a warm line, so every access after the first is an L1
// hit that never leaves the yield fast path (translate, coherence lookup,
// latency accounting, hook dispatch).
func BenchmarkAccessLatencyL1(b *testing.B) {
	mc, _ := benchMachine(1)
	body := func(th *Thread) {
		th.Store(1, heapBase, 8, 1) // warm the line to M
		for i := 0; i < b.N; i++ {
			th.Load(1, heapBase, 8)
		}
	}
	b.ResetTimer()
	if err := mc.Run([]func(*Thread){body}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAccessHITMPath measures the modified-remote-hit path: two
// threads alternately storing to the same word, so nearly every access
// snoops a dirty line out of the other core (HITM) and crosses a
// coroutine token handoff.
func BenchmarkAccessHITMPath(b *testing.B) {
	mc, _ := benchMachine(2)
	per := b.N/2 + 1
	body := func(th *Thread) {
		for i := 0; i < per; i++ {
			th.Store(1, heapBase, 8, uint64(i))
		}
	}
	b.ResetTimer()
	if err := mc.Run([]func(*Thread){body, body}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStepThroughputContended measures simulator throughput with 4
// threads ping-ponging one cache line (worst-case token handoff).
func BenchmarkStepThroughputContended(b *testing.B) {
	mc, _ := benchMachine(4)
	per := b.N/4 + 1
	body := func(th *Thread) {
		for i := 0; i < per; i++ {
			th.Store(1, heapBase+uint64(th.ID)*8, 8, uint64(i))
		}
	}
	b.ResetTimer()
	if err := mc.Run([]func(*Thread){body, body, body, body}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStepThroughputPrivate measures throughput when threads run on
// private lines with pacing work (common case).
func BenchmarkStepThroughputPrivate(b *testing.B) {
	mc, _ := benchMachine(4)
	per := b.N/4 + 1
	body := func(th *Thread) {
		addr := heapBase + uint64(th.ID)*512
		for i := 0; i < per; i++ {
			th.Store(1, addr, 8, uint64(i))
		}
	}
	b.ResetTimer()
	if err := mc.Run([]func(*Thread){body, body, body, body}); err != nil {
		b.Fatal(err)
	}
}

// benchHandoff measures the bare token transfer: n threads of pure compute
// quanta just above schedSlack, so the token moves round-robin every other
// instruction with no memory traffic in the way.
func benchHandoff(b *testing.B, n int) {
	mc, _ := benchMachine(n)
	per := b.N/n + 1
	body := func(th *Thread) {
		for i := 0; i < per; i++ {
			th.Work(schedSlack + 1)
		}
	}
	bodies := make([]func(*Thread), n)
	for i := range bodies {
		bodies[i] = body
	}
	b.ResetTimer()
	if err := mc.Run(bodies); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHandoffPingPong: two threads, every transfer to a thread off the
// resume chain (one coroutine switch).
func BenchmarkHandoffPingPong(b *testing.B) { benchHandoff(b, 2) }

// BenchmarkHandoffRoundRobin: four threads, so every fourth transfer
// unwinds the chain back to its bottom.
func BenchmarkHandoffRoundRobin(b *testing.B) { benchHandoff(b, 4) }
