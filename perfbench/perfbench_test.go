package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/tmi"
)

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if supports(999, 99) || !supports(1000, 99) {
		t.Error("p99 must need at least 1000 samples")
	}
}

func TestQuiet(t *testing.T) {
	got := quiet([]float64{0.3, 0.1, 0.2, 0.1, 0.5, 0})
	want := []int{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("quiet = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quiet = %v, want %v", got, want)
		}
	}
	if got := quiet([]float64{0, 0, 0}); len(got) != 3 {
		t.Fatalf("quiet with no steal kept %v, want every interval", got)
	}
}

var smallCell = cell{name: "histogram", setup: core.Pthreads, sys: tmi.Pthreads}

func TestPerturbedDigestFails(t *testing.T) {
	rep, _, err := runCell(smallCell, digestSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := map[string]string{smallCell.key(): digest(rep)}
	if reason := newDigestChecker(digestSeed, good).check(smallCell, rep, nil); reason != "" {
		t.Fatalf("matching digest failed: %s", reason)
	}

	bad := map[string]string{smallCell.key(): "0000000000000000"}
	var tl tally
	if reason := newDigestChecker(digestSeed, bad).check(smallCell, rep, nil); reason != "" {
		tl.fail(reason)
	}
	if tl.failed != 1 || tl.errorRate() != 1 {
		t.Fatalf("perturbed digest: tally %+v, want one failure", tl)
	}

	// At another seed the first run fixes the digest; a different outcome
	// afterwards is a failure.
	other := newDigestChecker(digestSeed+1, good)
	if reason := other.check(smallCell, rep, nil); reason != "" {
		t.Fatalf("first run at another seed failed: %s", reason)
	}
	changed := *rep
	changed.HITMEvents++
	if reason := other.check(smallCell, &changed, nil); reason == "" {
		t.Fatal("a changed outcome at the same seed passed")
	}
}

func TestStoredDigestsCoverEveryCell(t *testing.T) {
	stored, err := storedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		for _, c := range append(sp.cells(), captureCell) {
			if _, ok := stored[c.key()]; !ok {
				t.Errorf("%s: no stored digest for %s", sp.name, c.key())
			}
		}
	}
}

func TestSwitchCounter(t *testing.T) {
	tp := newTap()
	for _, tid := range []int{0, 0, 1, 1, 1, 0, 2} {
		tp.OnAccess(&core.AccessInfo{TID: tid, Size: 8})
	}
	tp.OnSync(0)
	if tp.accesses != 7 || tp.switches != 3 || tp.syncs != 1 {
		t.Fatalf("accesses %d switches %d syncs %d, want 7 3 1", tp.accesses, tp.switches, tp.syncs)
	}
	if len(tp.gapSame) != 3 || len(tp.gapSwitch) != 3 || len(tp.stream) != 7 {
		t.Fatalf("gaps %d same + %d switch, stream %d; want 3 + 3, 7", len(tp.gapSame), len(tp.gapSwitch), len(tp.stream))
	}
}

func TestTracedRunKeepsDigest(t *testing.T) {
	rep, _, err := runCell(smallCell, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	tp := newTap()
	traced, _, err := runCell(smallCell, 3, tp)
	if err != nil {
		t.Fatal(err)
	}
	if digest(rep) != digest(traced) {
		t.Fatalf("traced digest %s differs from untraced %s", digest(traced), digest(rep))
	}
	if tp.accesses == 0 || tp.switches == 0 || tp.switches >= tp.accesses {
		t.Fatalf("observed %d accesses with %d switches", tp.accesses, tp.switches)
	}
	if replayCache(tp.stream) <= 0 {
		t.Fatal("cache replay took no time")
	}
}

// newTestChunk captures a short histogramfs window set as a session input.
func newTestChunk(t *testing.T) *chunk {
	t.Helper()
	rep, _, err := runCell(captureCell, digestSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	open, _, err := serviceInputs(rep.SampleLog)
	if err != nil {
		t.Fatal(err)
	}
	return open[0]
}

func TestRejectedStreamRaisesErrorRate(t *testing.T) {
	good := newTestChunk(t)
	env, err := newSvcEnv(false)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()

	steal := startStealSampler(time.Now(), 0)
	defer steal.finish()

	res := &svcResult{}
	env.openLoop([]*chunk{good}, 50*time.Millisecond, false, steal, res)
	if res.tally.attempted == 0 || res.tally.failed != 0 {
		t.Fatalf("good stream: tally %+v", res.tally)
	}

	// A page size below the wire minimum is refused at the hello.
	bad := *good
	bad.pageSize = 1000
	res = &svcResult{}
	env.openLoop([]*chunk{&bad}, 50*time.Millisecond, false, steal, res)
	if res.tally.failed == 0 || res.tally.errorRate() == 0 {
		t.Fatalf("rejected stream: tally %+v, want failures", res.tally)
	}
	if !strings.Contains(strings.Join(res.tally.reasons, "\n"), "rejected") {
		t.Fatalf("reasons %q do not name the rejection", res.tally.reasons)
	}

	// Advice that differs from service.Replay is a failure too.
	wrong := *good
	wrong.want = append([]byte(nil), good.want...)
	wrong.want[len(wrong.want)/2] ^= 1
	if _, err := streamSession(env.hc, env.nodes[0], "wrong-advice", &wrong, 0); err == nil {
		t.Fatal("advice mismatch passed")
	}
}
