package repair

import (
	"fmt"

	"repro/internal/detect"
	"repro/internal/sim/cache"
	"repro/internal/sim/machine"
	"repro/internal/sim/mem"
)

// LatCoShare is the per-memory-access cost a thread pays for each other
// thread co-resident on its core after a map repair: SMT-style
// time-multiplexing of the load/store ports. Charged through the
// AccessCoster capability, so only the map backend's runs ever see it.
const LatCoShare = 10

// Mapping is the thread-and-data mapping backend (Pasqualin et al.,
// PAPERS.md): instead of isolating the contended data, it migrates the
// contending threads toward the data — onto the core whose socket is the
// flagged page's home node, and onto the *same* core so the ping-ponging
// lines collapse into one private cache. The repair trades interconnect
// HITMs for core co-residency: cheap when the threads are memory-bound on
// the shared lines, expensive when they need the whole machine's compute.
type Mapping struct {
	mc   *machine.Machine
	view *mem.AddrSpace

	migrated bool
	// coShare[c] is the number of threads co-resident on core c after
	// migration; AccessCost bills (n-1)*LatCoShare per access.
	coShare []int
	st      BackendStats
}

// NewMapping creates the mapping backend. view translates the detector's
// virtual page addresses to physical frames for home-node lookup.
func NewMapping(mc *machine.Machine, view *mem.AddrSpace) *Mapping {
	return &Mapping{mc: mc, view: view}
}

// Name implements Backend.
func (m *Mapping) Name() string { return BackendMap }

// Spaces implements Backend: mapping never remaps memory.
func (m *Mapping) Spaces() []*mem.AddrSpace { return nil }

// BackendStats implements Backend.
func (m *Mapping) BackendStats() BackendStats {
	st := m.st
	st.Backend = BackendMap
	return st
}

// Arm migrates every thread that has taken HITMs onto the home core of the
// hottest flagged page. One migration per run: the first request names the
// contention the detector found; later requests are counted but the
// placement stands (re-shuffling threads per advice tick would thrash).
func (m *Mapping) Arm(req *detect.Request, now int64, logf Logf) error {
	if req == nil || len(req.Pages) == 0 {
		return nil
	}
	m.st.RepairEvents++
	if m.migrated {
		return nil
	}
	cs := m.mc.Cache()
	target, err := m.homeCore(req)
	if err != nil {
		m.st.FailedRepairs++
		return err
	}
	for _, th := range m.mc.Threads() {
		if th.State() == machine.Done || th.Stats.HITM == 0 {
			continue
		}
		if th.Core != target {
			th.SetCore(target)
			m.st.ThreadsMigrated++
		}
	}
	m.coShare = make([]int, cs.NumCores())
	for _, th := range m.mc.Threads() {
		if th.State() != machine.Done {
			m.coShare[th.Core]++
		}
	}
	m.migrated = true
	m.st.ConvertedAtCycle = now
	if m.st.ThreadsMigrated > 0 {
		logf(now, "map: %d thread(s) migrated toward the hot page's home node", m.st.ThreadsMigrated)
	}
	return nil
}

// homeCore picks the migration target: the first core on the home socket
// of the hottest flagged page (by summed estimated event rate; on the flat
// single-socket machine that is core 0).
func (m *Mapping) homeCore(req *detect.Request) (int, error) {
	pageOf := func(addr uint64) uint64 {
		ps := uint64(m.view.PageSize())
		return addr &^ (ps - 1)
	}
	rate := make(map[uint64]float64, len(req.Pages))
	for _, l := range req.Lines {
		rate[pageOf(l.Line)] += l.EstEventsPerSec
	}
	hottest, best := req.Pages[0], -1.0
	for _, p := range req.Pages {
		if r := rate[p]; r > best || (r == best && p < hottest) {
			hottest, best = p, r
		}
	}
	tr, fault := m.view.Translate(hottest, false)
	if fault != nil {
		return 0, fmt.Errorf("repair: map: translating page 0x%x: %v", hottest, fault)
	}
	cs := m.mc.Cache()
	return cs.FirstCoreOf(cs.HomeSocket(tr.Phys)), nil
}

// AccessCost implements AccessCoster: co-resident threads time-multiplex
// the core's access ports.
func (m *Mapping) AccessCost(t *machine.Thread, _ *machine.Access, _ cache.Result) int64 {
	if !m.migrated {
		return 0
	}
	if n := m.coShare[t.Core]; n > 1 {
		return int64(n-1) * LatCoShare
	}
	return 0
}

var (
	_ Backend      = (*Mapping)(nil)
	_ AccessCoster = (*Mapping)(nil)
)
