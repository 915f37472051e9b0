// Package repair implements TMI's repair lifecycle (paper §3.2-3.3): the
// monitoring process PM reacts to a detector request by stopping every
// application thread with ptrace, converting each running thread into its
// own process via an injected fork trampoline, resuming them, and arming the
// page twinning store buffer on exactly the pages the detector identified.
//
// Conversion happens once, lazily, the first time repair is needed — the
// compatible-by-default property: applications without false sharing never
// leave the conventional threaded execution model.
//
// The paper's mechanism is one policy among several: repair is a Backend
// strategy (backend.go), and the T2P/PTSB engine below is its default
// implementation. The pad, map and tmebox backends (pad.go, mapping.go,
// tmebox.go) repair the same detector requests through allocator
// re-segregation, thread-and-data mapping, and fork-free keyed isolation;
// the LASER and Plastic comparison systems repair through line-granular
// backends of their own (lines.go).
package repair

import (
	"fmt"

	"repro/internal/detect"
	"repro/internal/ptsb"
	"repro/internal/sim/cache"
	"repro/internal/sim/machine"
	"repro/internal/sim/mem"
	"repro/internal/sim/osim"
)

// ptsbArmer is what the two PTSB backends share: one isolation address
// space per live thread, made once, and the PTSB armed on flagged pages in
// all of them. t2p makes the spaces by forking each thread into a process,
// tmebox by keying a cloned view onto each thread.
type ptsbArmer struct {
	name      string
	engine    *ptsb.Engine
	converted bool
	spaces    []*mem.AddrSpace
	st        BackendStats
}

// Name implements Backend.
func (a *ptsbArmer) Name() string { return a.name }

// Spaces implements Backend: the per-thread isolation spaces.
func (a *ptsbArmer) Spaces() []*mem.AddrSpace { return a.spaces }

// BackendStats implements Backend.
func (a *ptsbArmer) BackendStats() BackendStats {
	st := a.st
	st.Backend = a.name
	return st
}

// arm converts on first use, counts the request, and arms the PTSB on every
// page of pages not yet armed; listed is what the arming event names.
func (a *ptsbArmer) arm(convert func(int64, Logf) error, pages, listed []uint64, now int64, logf Logf) error {
	if err := convert(now, logf); err != nil {
		return err
	}
	a.st.RepairEvents++
	armed := 0
	for _, p := range pages {
		if a.engine.Protected(p) {
			continue
		}
		if err := a.engine.Protect(p, a.spaces); err != nil {
			a.st.FailedRepairs++
			return fmt.Errorf("repair: %s: arming page 0x%x: %w", a.name, p, err)
		}
		a.st.PagesProtected++
		armed++
	}
	if armed > 0 {
		logf(now, "PTSB armed on %d page(s): %s", armed, pageList(listed))
	}
	return nil
}

// Engine is the monitoring process PM: the default `t2p` repair backend.
type Engine struct {
	ptsbArmer
	os  *osim.OS
	app *osim.Process
	// Everywhere arms the PTSB on the whole heap at the first repair
	// (the paper's §4.3 PTSB-everywhere ablation) instead of targeting.
	Everywhere bool
	// HeapPages enumerates all heap pages for the Everywhere ablation and
	// for ArmAll.
	HeapPages func() []uint64
	// T2PCycles is the per-thread conversion cost.
	T2PCycles []int64
}

// New creates a repair engine for app, arming pages through e.
func New(o *osim.OS, app *osim.Process, e *ptsb.Engine) *Engine {
	return &Engine{ptsbArmer: ptsbArmer{name: BackendT2P, engine: e}, os: o, app: app}
}

// convert performs the stop-the-world thread-to-process conversion now,
// once. A conversion error leaves the remaining threads unconverted and
// the engine unarmed; the caller surfaces it as a failed repair.
func (r *Engine) convert(now int64, logf Logf) error {
	if r.converted {
		return nil
	}
	tracer := osim.Attach(r.os, r.app)
	tracer.StopAll()
	// Convert a stable snapshot: ConvertThreadToProcess mutates app.Threads.
	threads := append([]*machine.Thread(nil), r.app.Threads...)
	for _, th := range threads {
		if th.State() == machine.Done {
			continue
		}
		child, err := tracer.ConvertThreadToProcess(th)
		if err != nil {
			tracer.ResumeAll()
			r.st.FailedRepairs++
			return fmt.Errorf("repair: t2p conversion of thread %d: %w", th.ID, err)
		}
		r.spaces = append(r.spaces, child.Space)
	}
	tracer.ResumeAll()
	r.T2PCycles = tracer.T2PCycles
	r.st.ConvertedAtCycle = now
	r.converted = true
	us := make([]int, len(r.T2PCycles))
	for i, v := range r.T2PMicros() {
		us[i] = int(v)
	}
	logf(now, "PM: stop-the-world; %d thread(s) converted to processes (T2P %v us)", len(r.spaces), us)
	return nil
}

// Arm services one detector request: convert on first use, then arm the
// PTSB on the requested pages (or the whole heap in the Everywhere
// ablation) in every per-process space.
func (r *Engine) Arm(req *detect.Request, now int64, logf Logf) error {
	if req == nil || len(req.Pages) == 0 {
		return nil
	}
	pages := req.Pages
	if r.Everywhere && r.HeapPages != nil {
		pages = r.HeapPages()
	}
	return r.arm(r.convert, pages, req.Pages, now, logf)
}

// ArmAll converts now and arms the PTSB on every heap page, without a
// lifecycle trace: Sheriff's processes-from-startup, protect-everything
// design, and the model checker's ForceProtect.
func (r *Engine) ArmAll(now int64) error {
	return r.arm(r.convert, r.HeapPages(), nil, now, quiet)
}

// T2PMicros converts the recorded per-thread conversion costs to
// microseconds.
func (r *Engine) T2PMicros() []float64 {
	out := make([]float64, len(r.T2PCycles))
	for i, c := range r.T2PCycles {
		out[i] = float64(c) / (cache.ClockHz / 1e6)
	}
	return out
}

var _ Backend = (*Engine)(nil)
