package repair

import (
	"repro/internal/detect"
	"repro/internal/ptsb"
	"repro/internal/sim/machine"
	"repro/internal/sim/osim"
)

// CostKeyProgram is the per-thread cost of programming a keyed isolation
// domain (TME-Box style, PAPERS.md): write the key registers and flush the
// affected TLB entries. No ptrace stop, no fork, no page-table copy —
// that absence is the whole point of the backend, and why this is orders
// of magnitude below osim.CostT2PBase.
const CostKeyProgram = 1800

// TMEBox is the fork-free keyed isolation backend: every thread gets its
// own view of the address space under a per-thread protection key, while
// staying a thread of the original process. Protected pages fault per
// thread, twin privately, and merge back at synchronization points —
// the existing PTSB twin/diff/merge core, driven through per-thread
// cloned views instead of forked child processes.
type TMEBox struct {
	ptsbArmer
	app *osim.Process
}

// NewTMEBox creates the keyed-isolation backend for app, arming pages
// through e.
func NewTMEBox(app *osim.Process, e *ptsb.Engine) *TMEBox {
	return &TMEBox{ptsbArmer: ptsbArmer{name: BackendTMEBox, engine: e}, app: app}
}

// convert keys an isolation domain onto every live thread, once: each gets
// a cloned view of the process space (shared mappings stay shared, so
// unprotected memory behaves exactly as before) and pays the key-program
// cost. The threads stay threads — no fork, no process table change.
func (b *TMEBox) convert(now int64, logf Logf) error {
	if b.converted {
		return nil
	}
	for _, th := range b.app.Threads {
		if th.State() == machine.Done {
			continue
		}
		view := b.app.Space.Clone()
		th.SetSpace(view)
		th.AddCost(CostKeyProgram)
		b.spaces = append(b.spaces, view)
	}
	b.st.ConvertedAtCycle = now
	b.converted = true
	logf(now, "tmebox: %d isolation domain(s) keyed in-process (no fork)", len(b.spaces))
	return nil
}

// Arm services one detector request: key the domains on first use, then
// arm the PTSB on the requested pages in every per-thread view.
func (b *TMEBox) Arm(req *detect.Request, now int64, logf Logf) error {
	if req == nil || len(req.Pages) == 0 {
		return nil
	}
	return b.arm(b.convert, req.Pages, req.Pages, now, logf)
}

var _ Backend = (*TMEBox)(nil)
