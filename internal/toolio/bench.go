package toolio

import (
	"fmt"
	"io"
	"runtime"
)

// This file defines the persisted benchmark-trajectory schema: tmibench
// -bench-json writes one BENCH_<date>.json per invocation so every PR
// appends a comparable perf point. It follows the same conventions as
// Report (a tool name plus a flat Stats bag CI can diff without knowing the
// producing tool).

// BenchExperiment is one experiment's row in a benchmark trajectory.
type BenchExperiment struct {
	ID string `json:"id"`
	// WallSeconds is host wall-clock for the whole experiment, submission
	// through rendering.
	WallSeconds float64 `json:"wall_seconds"`
	// Cells is the number of individual simulation runs executed
	// (workload × configuration × seeded repetition).
	Cells int `json:"cells"`
	// BusySeconds sums every cell's individual wall-clock: what the same
	// grid would cost run strictly sequentially.
	BusySeconds float64 `json:"busy_seconds"`
	// Speedup is BusySeconds / WallSeconds — the sweep executor's measured
	// parallel speedup over a sequential run of the same cells.
	Speedup float64 `json:"speedup"`
	// Key simulated metrics, summed over cells, so a trajectory diff can
	// tell "the harness got faster" from "the simulation did less work".
	SimSeconds  float64 `json:"sim_seconds"`
	RecordsSeen uint64  `json:"records_seen"`
	Repairs     int     `json:"repairs"`
}

// BenchReport is the top-level BENCH_<date>.json document.
type BenchReport struct {
	// Version is the schema version (SchemaVersion at write time; older
	// trajectory files without the field read back as version 1).
	Version    int    `json:"version"`
	Tool       string `json:"tool"`
	Date       string `json:"date"` // YYYY-MM-DD
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// Workers is the sweep executor's worker count (tmibench -parallel).
	Workers int   `json:"workers"`
	Runs    int   `json:"runs"`
	Seed    int64 `json:"seed"`
	// WallSeconds is the whole invocation, summed over experiments.
	WallSeconds float64           `json:"wall_seconds"`
	Experiments []BenchExperiment `json:"experiments"`
	// Stats carries invocation-wide aggregates under the Report.Stats
	// naming convention ("<metric>" globals).
	Stats map[string]float64 `json:"stats,omitempty"`
}

// NewBenchReport builds an empty trajectory document for one invocation.
func NewBenchReport(date string, workers, runs int, seed int64) *BenchReport {
	return &BenchReport{
		Version:    SchemaVersion,
		Tool:       "tmibench",
		Date:       date,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Runs:       runs,
		Seed:       seed,
		Stats:      map[string]float64{},
	}
}

// Add appends one experiment's row and folds it into the aggregates.
func (r *BenchReport) Add(e BenchExperiment) {
	r.Experiments = append(r.Experiments, e)
	r.WallSeconds += e.WallSeconds
	r.Stats["total_cells"] += float64(e.Cells)
	r.Stats["total_busy_seconds"] += e.BusySeconds
	if r.WallSeconds > 0 {
		r.Stats["speedup"] = r.Stats["total_busy_seconds"] / r.WallSeconds
	}
}

// Write emits the report as indented JSON.
func (r *BenchReport) Write(w io.Writer) error { return writeDoc(w, r) }

// BenchFileName names the trajectory file for a YYYY-MM-DD date.
func BenchFileName(date string) string {
	return fmt.Sprintf("BENCH_%s.json", date)
}

// benchFileNameN names the n-th same-day trajectory file: the first point
// of a day is BENCH_<date>.json, reruns get BENCH_<date>.2.json, .3.json…
func benchFileNameN(date string, n int) string {
	if n <= 1 {
		return BenchFileName(date)
	}
	return fmt.Sprintf("BENCH_%s.%d.json", date, n)
}

// AutoBenchFileName returns the first unused trajectory file name for date
// (exists reports whether a candidate is taken), so a same-day rerun
// records a new point instead of clobbering a committed one.
func AutoBenchFileName(date string, exists func(string) bool) string {
	n := 1
	for exists(benchFileNameN(date, n)) {
		n++
	}
	return benchFileNameN(date, n)
}

// LatestBenchFileName returns the newest existing trajectory file for date,
// or the day's first file name if none exists yet — the file a same-day
// append (tmimicro) should fold into.
func LatestBenchFileName(date string, exists func(string) bool) string {
	last := benchFileNameN(date, 1)
	for n := 2; exists(benchFileNameN(date, n)); n++ {
		last = benchFileNameN(date, n)
	}
	return last
}

// ReadBenchReport parses a trajectory document (for tests and trajectory
// diff tooling).
func ReadBenchReport(rd io.Reader) (*BenchReport, error) {
	r, err := readDoc(rd, "trajectory", func(r *BenchReport) *int { return &r.Version })
	if err != nil {
		return nil, err
	}
	if r.Tool != "tmibench" {
		return nil, fmt.Errorf("toolio: not a tmibench trajectory (tool %q)", r.Tool)
	}
	return r, nil
}
