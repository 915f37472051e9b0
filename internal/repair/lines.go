package repair

import (
	"repro/internal/detect"
	"repro/internal/sim/cache"
	"repro/internal/sim/machine"
	"repro/internal/sim/mem"
)

// LASER's software store buffer changes the cost of accesses to repaired
// lines: a buffered store costs a fixed instrumentation overhead plus a
// fraction of the native coherence latency (the buffer absorbs most but not
// all of the line's round trips — flushes at TSO boundaries keep some); a
// load pays an instrumentation check. Better than a HITM miss, far worse
// than a private L1 hit — which is why LASER captures only a fraction of
// the manual speedup and can even slow lightly-contended code down.
const (
	LaserStoreFixed   = 55
	LaserStoreLatFrac = 0.3
	LaserLoadOverhead = 15
)

// Plastic's cost model: dynamic binary instrumentation taxes every memory
// access a few cycles program-wide (the paper reports ~6% overhead without
// contention), and its byte-granularity remapping makes repaired-line
// accesses hit a translation layer — cheaper than a HITM round trip, far
// costlier than a private hit, capturing roughly a third of the manual
// benefit where its repair activates.
const (
	PlasticDBIOverhead = 3  // cycles per memory access, program-wide
	PlasticRemapCost   = 90 // net cost of an access to a remapped line
)

// lineSet is what the two line-granular backends share: the flagged lines
// their instrumentation intercepts from first engagement on. Neither remaps
// memory nor converts threads; their repair is purely a per-access cost.
type lineSet struct {
	name  string
	lines map[uint64]bool
	st    BackendStats
}

// engage adds the request's lines and counts the request.
func (s *lineSet) engage(req *detect.Request, now int64) {
	if s.st.RepairEvents == 0 {
		s.st.ConvertedAtCycle = now
	}
	s.st.RepairEvents++
	for _, l := range req.Lines {
		s.lines[l.Line] = true
	}
}

// covers reports whether addr lies on an engaged line.
func (s *lineSet) covers(addr uint64) bool {
	return s.st.RepairEvents > 0 && s.lines[addr&^uint64(cache.LineSize-1)]
}

// Name implements Backend.
func (s *lineSet) Name() string { return s.name }

// Spaces implements Backend: line-granular repair never remaps memory.
func (s *lineSet) Spaces() []*mem.AddrSpace { return nil }

// BackendStats implements Backend.
func (s *lineSet) BackendStats() BackendStats {
	st := s.st
	st.Backend = s.name
	st.LinesIsolated = len(s.lines)
	return st
}

// Laser is LASER's repair: the detector's flagged lines are routed through
// an instrumented, TSO-preserving software store buffer. Sync-heavy code
// keeps the repair off, because TSO forces a buffer flush at every
// synchronization and the buffer would cost more than it saves.
type Laser struct {
	lineSet
	enabled bool
}

// NewLaser creates LASER's backend; syncHeavy (workload.Info.SyncHeavy)
// disables it.
func NewLaser(syncHeavy bool) *Laser {
	return &Laser{lineSet: lineSet{name: BackendLASER, lines: map[uint64]bool{}}, enabled: !syncHeavy}
}

// Arm engages the store buffer on the request's lines.
func (l *Laser) Arm(req *detect.Request, now int64, logf Logf) error {
	if req == nil || !l.enabled {
		return nil
	}
	l.engage(req, now)
	logf(now, "LASER: software store buffer engaged for %d line(s)", len(req.Lines))
	return nil
}

// AccessCost implements AccessCoster: a buffered store replaces most of the
// coherence latency with instrumentation; a load pays the check.
func (l *Laser) AccessCost(_ *machine.Thread, acc *machine.Access, res cache.Result) int64 {
	if !l.covers(acc.Addr) {
		return 0
	}
	if acc.Write {
		return LaserStoreFixed + int64(LaserStoreLatFrac*float64(res.Latency)) - res.Latency
	}
	return LaserLoadOverhead
}

// Plastic is the EuroSys'13 system's repair: whole-program dynamic binary
// instrumentation from the start, plus byte-granularity remapping of the
// detector's flagged lines (custom OS/hypervisor support assumed present).
type Plastic struct {
	lineSet
}

// NewPlastic creates Plastic's backend.
func NewPlastic() *Plastic {
	return &Plastic{lineSet: lineSet{name: BackendPlastic, lines: map[uint64]bool{}}}
}

// Arm engages remapping on the request's lines.
func (p *Plastic) Arm(req *detect.Request, now int64, logf Logf) error {
	if req == nil {
		return nil
	}
	p.engage(req, now)
	logf(now, "Plastic: byte-granularity remapping engaged for %d line(s)", len(req.Lines))
	return nil
}

// AccessCost implements AccessCoster: the DBI tax on every access, and the
// remap layer's cost in place of a slower access to a remapped line.
func (p *Plastic) AccessCost(_ *machine.Thread, acc *machine.Access, res cache.Result) int64 {
	if res.Latency > PlasticRemapCost && p.covers(acc.Addr) {
		return PlasticDBIOverhead + PlasticRemapCost - res.Latency
	}
	return PlasticDBIOverhead
}

var (
	_ AccessCoster = (*Laser)(nil)
	_ AccessCoster = (*Plastic)(nil)
	_ Backend      = (*Laser)(nil)
	_ Backend      = (*Plastic)(nil)
)
