package repair

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/detect"
	"repro/internal/sim/cache"
	"repro/internal/sim/machine"
	"repro/internal/sim/mem"
)

// Backend is the repair strategy seam: the runtime feeds every detector
// request to exactly one backend, and each backend removes the flagged
// false sharing through a different mechanism. The four tmi-protect
// backends are equivalent for correctness (the cache is a timing model;
// data lives in the address spaces) and differ only in repair cost and
// residual contention — which is what the `repair-backends` harness
// experiment measures. The LASER and Plastic comparison systems repair
// through backends of their own.
type Backend interface {
	// Name identifies the backend (one of the Backend* names).
	Name() string
	// Arm repairs the request's flagged pages/lines, performing the
	// backend's one-time execution-model change (T2P fork-off, keyed-domain
	// setup, ...) on first use, and records what it did through logf.
	// Errors are surfaced as failed-repair stats by the caller; the
	// simulation keeps running.
	Arm(req *detect.Request, now int64, logf Logf) error
	// Spaces returns the backend's isolation address spaces (nil for
	// backends that do not remap memory, or before the one-time change);
	// the runtime tears protection down through them when pages go idle.
	Spaces() []*mem.AddrSpace
	// BackendStats summarizes the backend's activity.
	BackendStats() BackendStats
}

// Logf records one lifecycle event at simulated time now (the runtime's
// Report.Events, Figure 5).
type Logf func(now int64, format string, args ...any)

// quiet is the Logf for repairs that leave no lifecycle trace (Sheriff's
// protect-everything startup).
func quiet(int64, string, ...any) {}

// AccessCoster is an optional Backend capability: a per-memory-access cost
// the repair imposes (the map backend's core co-residency, LASER's store
// buffer, Plastic's instrumentation). The runtime consults it from the
// post-access hook only when the active backend implements it, so the
// default path stays free.
type AccessCoster interface {
	AccessCost(t *machine.Thread, acc *machine.Access, res cache.Result) int64
}

// BackendStats is the cross-backend activity summary. Only the counters a
// mechanism actually uses are non-zero: pages for t2p/tmebox, lines for
// pad, laser and plastic, migrations for map.
type BackendStats struct {
	// Backend names the strategy.
	Backend string
	// RepairEvents counts detector requests acted on (Sheriff's startup
	// arming counts as one).
	RepairEvents int
	// PagesProtected counts pages armed with the PTSB (t2p, tmebox).
	PagesProtected int
	// LinesIsolated counts cache lines taken out of sharing: re-segregated
	// by padding (pad), or routed through LASER's store buffer or
	// Plastic's remapping.
	LinesIsolated int
	// ThreadsMigrated counts threads re-pinned to the data's home (map).
	ThreadsMigrated int
	// FailedRepairs counts requests that could not be applied.
	FailedRepairs int
	// ConvertedAtCycle is the simulated time of the one-time conversion
	// or first engagement (0 if never engaged).
	ConvertedAtCycle int64
}

// Backend names. The first four are what tmi.Config.RepairBackend
// selects; the laser and plastic setups choose their own.
const (
	BackendT2P     = "t2p"
	BackendPad     = "pad"
	BackendMap     = "map"
	BackendTMEBox  = "tmebox"
	BackendLASER   = "laser"
	BackendPlastic = "plastic"
)

// BackendNames lists the selectable repair backends in policy-table order.
var BackendNames = []string{BackendT2P, BackendPad, BackendMap, BackendTMEBox}

// CheckBackend refuses a name that selects no backend ("" means t2p).
func CheckBackend(name string) error {
	if name == "" || slices.Contains(BackendNames, name) {
		return nil
	}
	return fmt.Errorf("repair: unknown backend %q (want one of %v)", name, BackendNames)
}

// pageList renders up to four page addresses for a lifecycle event.
func pageList(pages []uint64) string {
	var parts []string
	for i, p := range pages {
		if i == 4 {
			parts = append(parts, "...")
			break
		}
		parts = append(parts, fmt.Sprintf("0x%x", p))
	}
	return strings.Join(parts, " ")
}
