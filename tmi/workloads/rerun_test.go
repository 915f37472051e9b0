package workloads_test

import (
	"reflect"
	"testing"

	"repro/tmi"
	"repro/tmi/workloads"
)

// A workload instance must be reusable: Setup re-initializes everything a
// run depends on. Running each suite member under pthreads and then under
// tmi-protect on the same instance must validate and report exactly what a
// fresh instance reports. Setup used to append to lock slices, so the
// second run locked the first run's stale mutex handles and deadlocked.
func TestSuiteRerunOnOneInstance(t *testing.T) {
	fresh := workloads.Suite()
	for i, w := range workloads.Suite() {
		t.Run(w.Name(), func(t *testing.T) {
			if _, err := tmi.Run(w, tmi.Config{System: tmi.Pthreads}); err != nil {
				t.Fatalf("first run: %v", err)
			}
			again, err := tmi.Run(w, tmi.Config{System: tmi.TMIProtect})
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if !again.Validated {
				t.Fatalf("second run failed validation: %s %s", again.ValidationErr, again.HangReason)
			}
			want, err := tmi.Run(fresh[i], tmi.Config{System: tmi.TMIProtect})
			if err != nil {
				t.Fatalf("fresh run: %v", err)
			}
			if !reflect.DeepEqual(again, want) {
				t.Errorf("second run on one instance differs from a fresh instance:\n got %+v\nwant %+v", again, want)
			}
		})
	}
}
