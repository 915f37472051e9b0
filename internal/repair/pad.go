package repair

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/detect"
	"repro/internal/sim/cache"
	"repro/internal/sim/machine"
	"repro/internal/sim/mem"
)

// CostResegregate is the stop-the-world cost, charged to every live
// thread, of re-segregating one page's allocations onto private cache
// lines: walk the page, reallocate each object line-aligned, copy, patch
// the references. Far cheaper than a T2P fork but paid once per flagged
// page.
const CostResegregate = 2500

// Pad is the allocator realignment backend: instead of isolating pages
// behind the PTSB, it re-segregates the offending allocations so no two
// objects share a line. In the model that is two coordinated moves — the
// allocator's placement policy switches to PaddedPolicy for everything
// allocated from now on, and every line of each flagged page is re-homed
// onto per-core private shadow entries in the cache (cache.IsolateLine),
// which is exactly what "every object on its own line" means to the
// coherence fabric. Page granularity matches the detector's repair
// requests (and the other backends): the whole offending allocation
// neighborhood is re-laid-out, not just the single hottest line.
type Pad struct {
	mc   *machine.Machine
	view *mem.AddrSpace
	al   *alloc.Allocator
	// seen tracks pages already re-segregated, so repeated advice for a
	// hot page is not re-charged.
	seen  map[uint64]bool
	armed bool
	st    BackendStats
}

// NewPad creates the padding backend. view translates the detector's
// virtual line addresses to physical ones (the shared pre-repair view —
// pad never remaps anything, so it stays authoritative).
func NewPad(mc *machine.Machine, view *mem.AddrSpace, al *alloc.Allocator) *Pad {
	return &Pad{mc: mc, view: view, al: al, seen: make(map[uint64]bool)}
}

// Name implements Backend.
func (p *Pad) Name() string { return BackendPad }

// Spaces implements Backend: pad never remaps memory.
func (p *Pad) Spaces() []*mem.AddrSpace { return nil }

// BackendStats implements Backend.
func (p *Pad) BackendStats() BackendStats {
	st := p.st
	st.Backend = BackendPad
	return st
}

// Arm re-segregates every flagged page the request carries, switching the
// allocator's policy on first use.
func (p *Pad) Arm(req *detect.Request, now int64, logf Logf) error {
	if req == nil || len(req.Pages) == 0 {
		return nil
	}
	p.st.RepairEvents++
	if !p.armed {
		// Future allocations land on private lines from here on.
		p.al.SetPolicy(alloc.PaddedPolicy())
		p.st.ConvertedAtCycle = now
		p.armed = true
		logf(now, "pad: allocator switched to line-segregated placement")
	}
	cs := p.mc.Cache()
	lines := uint64(p.view.PageSize()) / cache.LineSize
	before := p.st.LinesIsolated
	for _, page := range req.Pages {
		if p.seen[page] {
			continue
		}
		tr, fault := p.view.Translate(page, false)
		if fault != nil {
			p.st.FailedRepairs++
			return fmt.Errorf("repair: pad: translating page 0x%x: %v", page, fault)
		}
		for i := uint64(0); i < lines; i++ {
			cs.IsolateLine(tr.Phys + i*cache.LineSize)
		}
		p.seen[page] = true
		p.st.LinesIsolated += int(lines)
		// Stop-the-world move: every live thread pays the realloc+copy.
		for _, th := range p.mc.Threads() {
			if th.State() != machine.Done {
				th.AddCost(CostResegregate)
			}
		}
	}
	if d := p.st.LinesIsolated - before; d > 0 {
		logf(now, "pad: %d line(s) re-segregated onto private lines", d)
	}
	return nil
}

var _ Backend = (*Pad)(nil)
