// Package harness regenerates every table and figure of the paper's
// evaluation: each experiment runs the relevant workloads under the relevant
// systems, aggregates over repeated seeded runs, and prints the same rows or
// series the paper reports (and optionally CSV for plotting).
package harness

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/tmi"
	"repro/tmi/workload"
)

// Options configures a harness invocation.
type Options struct {
	// Runs is the number of seeded repetitions averaged per configuration
	// (the paper averages 25; the default here is 3). Negative values are
	// rejected by defaults(): a non-positive repetition count would make
	// every mean a 0/0 NaN that silently poisons downstream tables.
	Runs int
	// Seed is the base seed; run i uses Seed+i.
	Seed int64
	// Out receives the rendered tables.
	Out io.Writer
	// CSVDir, when set, receives one CSV file per experiment.
	CSVDir string
	// Parallel is the number of host worker goroutines the sweep executor
	// fans simulation cells across (default runtime.GOMAXPROCS(0); 1 runs
	// the sweep sequentially). Output is byte-identical for any value.
	Parallel int
	// Ctx, when set, cancels the sweep: on Ctx.Done, queued cells fail with
	// Ctx.Err() (in-flight simulations finish — they have no preemption
	// points) and the running experiment returns that error. nil means the
	// sweep runs to completion.
	Ctx context.Context

	exec  *executor
	meter *benchMeter

	statsMu sync.Mutex
	stats   map[string]float64
}

// Stat records an invocation-wide named metric (Report.Stats naming
// convention). Experiments use it for numbers the executor telemetry cannot
// see — e.g. the ingest experiment's records/s — and
// tmibench folds whatever accumulated into the persisted trajectory's Stats
// bag via DrainStats.
func (o *Options) Stat(name string, value float64) {
	o.statsMu.Lock()
	defer o.statsMu.Unlock()
	if o.stats == nil {
		o.stats = map[string]float64{}
	}
	o.stats[name] = value
}

// DrainStats returns the metrics recorded via Stat since the last drain and
// clears them.
func (o *Options) DrainStats() map[string]float64 {
	o.statsMu.Lock()
	defer o.statsMu.Unlock()
	s := o.stats
	o.stats = nil
	return s
}

func (o *Options) defaults() error {
	if o.Runs < 0 {
		return fmt.Errorf("harness: Options.Runs must be positive, got %d", o.Runs)
	}
	if o.Runs == 0 {
		o.Runs = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Out == nil {
		o.Out = os.Stdout
	}
	return nil
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(o *Options) error
}

// Execute validates o (applying defaults) and runs the experiment. Prefer
// this over calling Run directly: it is the path that rejects invalid
// repetition counts instead of letting them surface as NaN means.
func (e Experiment) Execute(o *Options) error {
	if err := o.defaults(); err != nil {
		return err
	}
	return e.Run(o)
}

// All returns the experiments in paper order, followed by the extension
// experiments (prose claims and reproduction ablations).
func All() []Experiment {
	return append(core(), extra...)
}

func core() []Experiment {
	return []Experiment{
		{"table1", "Table 1: requirements for effective false sharing repair", table1},
		{"table2", "Table 2: cross-region consistency semantics", table2},
		{"fig3", "Figure 3: aligned multi-byte store atomicity (word tearing)", fig3},
		{"fig4", "Figure 4: perf sample period vs runtime and HITM events (leveldb)", fig4},
		{"fig5", "Figure 5: process/thread organization — the repair lifecycle trace", fig5},
		{"fig7", "Figure 7: detection runtime overhead across the suite", fig7},
		{"fig8", "Figure 8: memory overhead across the suite", fig8},
		{"fig9", "Figure 9: repair speedups on the false-sharing suite", fig9},
		{"table3", "Table 3: characterization of TMI's false sharing repair", table3},
		{"fig10", "Figure 10: 4 KiB vs 2 MiB huge pages", fig10},
		{"fig11", "Figure 11: canneal atomic swaps vs PTSB without CCC", fig11},
		{"fig12", "Figure 12: cholesky flag synchronization vs PTSB without CCC", fig12},
		{"ablation-everywhere", "§4.3: targeted repair vs PTSB-everywhere", ablationEverywhere},
		{"leveldb-detect", "§4.2: true vs false sharing in unmodified leveldb", leveldbDetect},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (one of %s)", id, strings.Join(ids, ", "))
}

// runStats executes w under cfg Options.Runs times with consecutive seeds
// and returns the first run's report with SimSeconds replaced by the mean,
// plus the relative standard deviation of the runtimes. It schedules the
// repetitions on the sweep executor and blocks for the aggregate, so
// callers that want cross-cell parallelism should submit their whole grid
// with Options.submit first and consume the cells afterwards.
func runStats(o *Options, w func() workload.Workload, cfg tmi.Config) (*tmi.Report, float64, error) {
	if o.Runs <= 0 {
		return nil, 0, fmt.Errorf("harness: Options.Runs must be positive, got %d (did defaults run?)", o.Runs)
	}
	return o.submit(w, cfg).stats()
}

// runMean is runStats without the spread.
func runMean(o *Options, w func() workload.Workload, cfg tmi.Config) (*tmi.Report, error) {
	rep, _, err := runStats(o, w, cfg)
	return rep, err
}

// csvFile opens a CSV file for an experiment, or returns nil if CSV output
// is disabled.
func csvFile(o *Options, name string) (*os.File, error) {
	if o.CSVDir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(o.CSVDir, 0o755); err != nil {
		return nil, err
	}
	return os.Create(filepath.Join(o.CSVDir, name))
}

func csvLine(f *os.File, fields ...any) {
	if f == nil {
		return
	}
	parts := make([]string, len(fields))
	for i, v := range fields {
		parts[i] = fmt.Sprint(v)
	}
	fmt.Fprintln(f, strings.Join(parts, ","))
}

func header(o *Options, title string) {
	fmt.Fprintf(o.Out, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
