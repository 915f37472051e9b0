package toolio

import (
	"bytes"
	"strings"
	"testing"
)

// sampleBenchReport is a two-experiment trajectory point (also a
// FuzzReadReports seed).
func sampleBenchReport() *BenchReport {
	r := NewBenchReport("2026-08-05", 8, 3, 1)
	r.Add(BenchExperiment{ID: "fig9", WallSeconds: 2, Cells: 90, BusySeconds: 8, Speedup: 4, SimSeconds: 0.5, RecordsSeen: 1000, Repairs: 9})
	r.Add(BenchExperiment{ID: "fig7", WallSeconds: 4, Cells: 420, BusySeconds: 12, Speedup: 3, SimSeconds: 1.5, RecordsSeen: 4000})
	return r
}

func TestBenchReportRoundTrip(t *testing.T) {
	r := sampleBenchReport()

	if r.WallSeconds != 6 {
		t.Errorf("WallSeconds = %v, want 6", r.WallSeconds)
	}
	if r.Stats["total_cells"] != 510 {
		t.Errorf("total_cells = %v, want 510", r.Stats["total_cells"])
	}
	if got := r.Stats["speedup"]; got != 20.0/6.0 {
		t.Errorf("speedup = %v, want %v", got, 20.0/6.0)
	}

	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBenchReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Tool != "tmibench" || back.Date != "2026-08-05" || back.Workers != 8 {
		t.Errorf("header did not round-trip: %+v", back)
	}
	if len(back.Experiments) != 2 || back.Experiments[0] != r.Experiments[0] {
		t.Errorf("experiments did not round-trip: %+v", back.Experiments)
	}
}

func TestReadBenchReportRejectsOtherTools(t *testing.T) {
	if _, err := ReadBenchReport(strings.NewReader(`{"tool":"tmilint"}`)); err == nil {
		t.Error("accepted a non-tmibench document")
	}
}

func TestBenchFileName(t *testing.T) {
	if got := BenchFileName("2026-08-05"); got != "BENCH_2026-08-05.json" {
		t.Errorf("BenchFileName = %q", got)
	}
}

func TestAutoBenchFileName(t *testing.T) {
	taken := map[string]bool{}
	exists := func(p string) bool { return taken[p] }

	if got := AutoBenchFileName("2026-08-05", exists); got != "BENCH_2026-08-05.json" {
		t.Errorf("empty day: AutoBenchFileName = %q", got)
	}
	taken["BENCH_2026-08-05.json"] = true
	if got := AutoBenchFileName("2026-08-05", exists); got != "BENCH_2026-08-05.2.json" {
		t.Errorf("one point: AutoBenchFileName = %q", got)
	}
	taken["BENCH_2026-08-05.2.json"] = true
	if got := AutoBenchFileName("2026-08-05", exists); got != "BENCH_2026-08-05.3.json" {
		t.Errorf("two points: AutoBenchFileName = %q", got)
	}
}

func TestLatestBenchFileName(t *testing.T) {
	taken := map[string]bool{}
	exists := func(p string) bool { return taken[p] }

	// No point yet: appending tooling should target the day's first file.
	if got := LatestBenchFileName("2026-08-05", exists); got != "BENCH_2026-08-05.json" {
		t.Errorf("empty day: LatestBenchFileName = %q", got)
	}
	taken["BENCH_2026-08-05.json"] = true
	if got := LatestBenchFileName("2026-08-05", exists); got != "BENCH_2026-08-05.json" {
		t.Errorf("one point: LatestBenchFileName = %q", got)
	}
	taken["BENCH_2026-08-05.2.json"] = true
	taken["BENCH_2026-08-05.3.json"] = true
	if got := LatestBenchFileName("2026-08-05", exists); got != "BENCH_2026-08-05.3.json" {
		t.Errorf("three points: LatestBenchFileName = %q", got)
	}
}
