package tmi_test

import (
	"errors"
	"testing"

	"repro/tmi"
	"repro/tmi/workloads"
)

// backendsUnderTest is every selectable repair strategy.
var backendsUnderTest = []string{"t2p", "pad", "map", "tmebox"}

// fsSuite is the seeded false-sharing suite (harness fsNames).
var fsSuite = []string{
	"histogram", "histogramfs", "lreg", "stringmatch", "lu-ncb",
	"leveldb", "spinlockpool", "shptr-relaxed", "shptr-lock",
}

// lastRate returns the final detection interval's HITM rate, and the peak
// over the whole timeline.
func lastRate(rep *tmi.Report) (last, peak float64) {
	for _, s := range rep.Timeline {
		if s.HITMPerSec > peak {
			peak = s.HITMPerSec
		}
		last = s.HITMPerSec
	}
	return last, peak
}

// TestBackendParity drives every repair backend over every seeded
// false-sharing workload, with the paper's t2p mechanism as the reference:
// every backend must validate, engage exactly when t2p engages (the
// detector, not the backend, decides what is repairable — spinlockpool's
// lock words classify as true sharing and nobody touches them), and where
// repair engages, drive the post-repair HITM rate down at least as far as
// t2p does (within 2x). On workloads whose contention is dominated by the
// flagged false sharing (everything but leveldb, which keeps heavy true
// sharing no page repair may touch), t2p itself must shed >= 75% of the
// unrepaired baseline rate. t2p's byte-identity on the paper workloads is
// covered separately by the fig9 golden gate.
func TestBackendParity(t *testing.T) {
	trueSharingHeavy := map[string]bool{"leveldb": true}
	for _, name := range fsSuite {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			base := run(t, name, tmi.Config{System: tmi.TMIDetect})
			if !base.Validated {
				t.Fatalf("detect-only baseline invalid: %s", base.ValidationErr)
			}
			baseLast, _ := lastRate(base)

			ref := run(t, name, tmi.Config{System: tmi.TMIProtect, RepairBackend: "t2p"})
			if !ref.Validated {
				t.Fatalf("t2p reference invalid: %s", ref.ValidationErr)
			}
			refLast, _ := lastRate(ref)
			if ref.Repaired && !trueSharingHeavy[name] && baseLast > 0 && refLast > 0.25*baseLast {
				t.Errorf("t2p: residual HITM %.0f/s did not collapse (baseline %.0f/s)", refLast, baseLast)
			}

			for _, backend := range backendsUnderTest[1:] { // t2p is ref
				rep := run(t, name, tmi.Config{System: tmi.TMIProtect, RepairBackend: backend})
				if !rep.Validated {
					t.Errorf("%s: run invalid: %s", backend, rep.ValidationErr)
					continue
				}
				if rep.RepairBackend != backend {
					t.Errorf("%s: report names backend %q", backend, rep.RepairBackend)
				}
				if rep.Repaired != ref.Repaired {
					t.Errorf("%s: repaired=%v but t2p repaired=%v", backend, rep.Repaired, ref.Repaired)
					continue
				}
				if got := rep.BackendActivity.FailedRepairs; got != 0 {
					t.Errorf("%s: %d failed repairs", backend, got)
				}
				if !ref.Repaired {
					continue
				}
				last, _ := lastRate(rep)
				limit := 2 * refLast
				if limit < 10_000 {
					limit = 10_000
				}
				if last > limit {
					t.Errorf("%s: residual HITM %.0f/s, want <= %.0f/s (t2p %.0f/s, baseline %.0f/s)",
						backend, last, limit, refLast, baseLast)
				}
			}
		})
	}
}

// TestBackendRejectsUnknown pins the config validation errors: an unknown
// backend name, and a backend given to a system that repairs its own way
// (or not at all) instead of being silently ignored.
func TestBackendRejectsUnknown(t *testing.T) {
	w, err := workloads.ByName("histogramfs")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []tmi.Config{
		{System: tmi.TMIProtect, RepairBackend: "voodoo"},
		{System: tmi.LASER, RepairBackend: "pad"},
	} {
		if _, err := tmi.Run(w, cfg); !errors.Is(err, tmi.ErrConfig) {
			t.Errorf("%v with backend %q: err %v, want tmi.ErrConfig", cfg.System, cfg.RepairBackend, err)
		}
	}
}
