// Command perfbench is the repository's benchmark: it runs one named
// workload through the simulator (core/tmi, detect, ptsb, repair) and the
// service tier (toolio, service, cluster) from their public entry points,
// checks every output, and prints its metrics as one JSON line.
//
//	perfbench --workload sim-repair --seed 1 --seconds 15 --trace 0
//
// See README.md for the workloads, the metrics and the traced pass.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim/trace"
)

// spec is one benchmark workload: the cells its simulation stage runs,
// whether its streams reach the nodes through the router, and how a run's
// seconds are split between the simulation, open-loop and saturation
// stages. Every workload streams the same histogramfs capture, so every
// end-to-end metric exists on every workload; the shares decide which
// stage carries the load.
type spec struct {
	name      string
	cells     func() []cell
	routed    bool
	simShare  float64
	openShare float64 // the rest of the run saturates
}

var specs = []spec{
	{name: "sim-repair", cells: repairCells, simShare: 0.4, openShare: 0.3},
	{name: "sim-clean", cells: cleanCells, simShare: 0.4, openShare: 0.3},
	{name: "tmid-routed", cells: cleanCells, routed: true, simShare: 0.2, openShare: 0.5},
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 5

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"sim_access_per_s", "1/s"},
	{"records_per_s", "1/s"},
	{"advice_ms_p50", "ms"},
	{"migration_ms_p50", "ms"},
}

var perLayer = []metricDef{
	{"machine.switches_per_access", "ratio"},
	{"machine.gap_same_ns_p50", "ns"},
	{"machine.gap_switch_ns_p50", "ns"},
	{"cache.accesses", "count"},
	{"cache.hitm", "count"},
	{"cache.l1_hits", "count"},
	{"cache.replay_ns_per_access", "ns"},
	{"pebs.records", "count"},
	{"pebs.dropped", "count"},
	{"ptsb.twin_faults", "count"},
	{"ptsb.commits", "count"},
	{"ptsb.bytes_merged", "bytes"},
	{"repair.pages_protected", "count"},
	{"core.sync_events", "count"},
	{"core.trace_overhead", "ratio"},
	{"detect.ingest_ns_per_record", "ns"},
	{"detect.analyze_us_per_window", "us"},
	{"toolio.encode_ns_per_record", "ns"},
	{"toolio.decode_ns_per_record", "ns"},
	{"service.replay_ns_per_record", "ns"},
	{"service.advice_server_ms_mean", "ms"},
	{"loadgen.write_block_ms", "ms"},
	{"loadgen.late_ms_max", "ms"},
	{"cluster.relay_us_per_tick", "us"},
	{"cluster.export_ms_p50", "ms"},
	{"cluster.migrate_records_per_s", "1/s"},
	{"error_rate", "ratio"},
	{"advice_ms_p99", "ms"},
	{"migration_ms_p90", "ms"},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: sim-repair, sim-clean or tmid-routed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measured seconds")
	traced := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	writeDigests := flag.String("write-digests", "", "record this run's cell digests into the given file (seed 1 only)")
	flag.Parse()

	var sp *spec
	for i := range specs {
		if specs[i].name == *workload {
			sp = &specs[i]
		}
	}
	if sp == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *traced)
		os.Exit(2)
	}
	if *writeDigests != "" && simSeed(*seed) != digestSeed {
		fmt.Fprintf(os.Stderr, "perfbench: -write-digests needs seed %d\n", digestSeed)
		os.Exit(2)
	}
	stamp(*sp, *seed, *seconds, *traced)
	res, checker, err := run(*sp, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *writeDigests != "")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if *writeDigests != "" {
		if err := mergeDigests(*writeDigests, checker.seen); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets up, runs the stages and assembles the metrics.
func run(sp spec, seed int64, total time.Duration, traced, recording bool) (*result, *digestChecker, error) {
	stored, err := storedDigests()
	if err != nil {
		return nil, nil, err
	}
	if recording {
		stored = nil
	}
	checker := newDigestChecker(seed, stored)
	var t tally

	// Setup: take the capture the streams replay, encode it into session
	// inputs, resolve the cells and bring up the clusters.
	var setupS []float64
	var env *svcEnv
	var plain *plainCluster
	var cells []cell
	var open []*chunk
	var sat *chunk
	var capture *trace.SampleLog
	for i := 0; i < setups; i++ {
		if env != nil {
			env.close()
			plain.close()
		}
		t0 := time.Now()
		rep, _, err := runCell(captureCell, seed, nil)
		if reason := checker.check(captureCell, rep, err); reason != "" {
			t.fail("setup: " + reason)
			return finish(sp, traced, t, nil, nil, nil, nil), checker, nil
		}
		t.ok()
		capture = rep.SampleLog
		if open, sat, err = serviceInputs(capture); err != nil {
			return nil, nil, err
		}
		cells = sp.cells()
		if env, err = newSvcEnv(sp.routed); err != nil {
			return nil, nil, err
		}
		if plain, err = newPlainCluster(); err != nil {
			env.close()
			return nil, nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer func() {
		if env != nil {
			env.close()
		}
		plain.close()
	}()

	// The simulation slices, open-loop rounds and saturation slices take
	// turns, so every metric samples the host over the whole run rather
	// than one stretch of it: the host's speed drifts over seconds.
	share := func(f float64) time.Duration { return time.Duration(f * float64(total)) }
	openDur, satDur := share(sp.openShare), share(1-sp.simShare-sp.openShare)
	rounds := max(1, int((openDur+openRound/2)/openRound))
	simSlice := share(sp.simShare) / time.Duration(rounds)
	warm := min(satWarm, satDur/2)
	satIntervals := max(1, int((satDur-warm)/stealInterval))
	simRun := newSimRunner(cells, seed, checker, traced)
	svcRun := newSvcRunner(env, plain, sp.routed, open, sat, traced)
	env = nil
	svcRun.warm(warm)
	for i := 0; i < rounds; i++ {
		simRun.runUntil(time.Now().Add(simSlice))
		svcRun.round(openDur/time.Duration(rounds), satIntervals*(i+1)/rounds-satIntervals*i/rounds)
	}
	sim := simRun.finish()
	t.add(sim.tally)
	svc := svcRun.finish()
	t.add(svc.tally)

	var layers map[string]float64
	if traced {
		if layers, err = layerMetrics(capture); err != nil {
			t.fail("layers: " + err.Error())
		}
	}
	return finish(sp, traced, t, setupS, sim, svc, layers), checker, nil
}

// layerMetrics replays the capture through each layer.
func layerMetrics(log *trace.SampleLog) (map[string]float64, error) {
	m := map[string]float64{}
	var err error
	if m["detect.ingest_ns_per_record"], m["detect.analyze_us_per_window"], err = detectLayer(log); err != nil {
		return nil, err
	}
	if m["toolio.encode_ns_per_record"], m["toolio.decode_ns_per_record"], err = wireLayer(log); err != nil {
		return nil, err
	}
	if m["service.replay_ns_per_record"], err = replayLayer(log); err != nil {
		return nil, err
	}
	return m, nil
}

// finish assembles the result and prints the sample counts and failures.
func finish(sp spec, traced bool, t tally, setupS []float64, sim *simResult, svc *svcResult, layers map[string]float64) *result {
	res := &result{Attempted: max(t.attempted, 1), Failed: t.failed, Metrics: map[string]metricOut{}}
	if t.attempted == 0 {
		res.Failed = 1
	}
	res.Correct = res.Failed == 0
	for _, r := range t.reasons {
		fmt.Printf("failure: %s\n", r)
	}
	if sim == nil || svc == nil {
		return res
	}
	values := map[string]float64{}
	quietAdvice, quietMigrate := svc.quietSamples()
	values["advice_ms_p50"] = quantile(quietAdvice, 0.50)
	values["advice_ms_p99"] = quantile(quietAdvice, 0.99)
	values["migration_ms_p50"] = quantile(quietMigrate, 0.50)
	values["migration_ms_p90"] = quantile(quietMigrate, 0.90)
	samples := map[string]any{
		"setups":                  len(setupS),
		"sim_passes":              len(sim.passRates),
		"sim_passes_used":         len(quiet(sim.passSteal)),
		"open_intervals":          len(svc.openIntervals()),
		"advice_ticks":            len(svc.adviceMS),
		"advice_ticks_used":       len(quietAdvice),
		"advice_ms_p99":           values["advice_ms_p99"],
		"advice_p99_supported":    supports(len(quietAdvice), 99),
		"advice_p99_limit_ms":     adviceP99LimitMS,
		"advice_p99_within_limit": values["advice_ms_p99"] <= adviceP99LimitMS,
		"migrations":              len(svc.migrateMS),
		"migrations_used":         len(quietMigrate),
		"migration_ms_p90":        values["migration_ms_p90"],
		"migration_p90_supported": supports(len(quietMigrate), 90),
		"sat_records":             svc.satRecords,
		"sat_intervals":           len(svc.satRates),
		"sat_intervals_used":      len(quiet(svc.satSteal)),
		"host_steal_s":            hostStealSeconds() - stealAtStart,
	}
	if traced {
		for k, v := range sim.layer {
			values[k] = v
		}
		for k, v := range layers {
			values[k] = v
		}
		values["service.advice_server_ms_mean"] = svc.serverMS
		values["loadgen.write_block_ms"] = mean(svc.blockMS)
		values["loadgen.late_ms_max"] = svc.lateMaxMS
		if len(svc.routedMS) > 0 && len(svc.directMS) > 0 {
			values["cluster.relay_us_per_tick"] = (median(svc.routedMS) - median(svc.directMS)) * 1000
		}
		values["cluster.export_ms_p50"] = median(svc.exportMS)
		if svc.migrateSecs > 0 {
			values["cluster.migrate_records_per_s"] = float64(svc.migratedRec) / svc.migrateSecs
		}
		values["error_rate"] = t.errorRate()
		samples["traced_sim_passes"] = len(sim.tracedS)
		samples["paired_ticks"] = len(svc.routedMS)
		samples["exports"] = len(svc.exportMS)
	} else {
		values["setup_s"] = median(setupS)
		values["max_rss_mb"] = maxRSSMB()
		values["sim_access_per_s"] = median(pick(sim.passRates, quiet(sim.passSteal)))
		values["records_per_s"] = median(pick(svc.satRates, quiet(svc.satSteal)))
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricOut{Value: values[d.name], Unit: d.unit}
	}
	b, _ := json.Marshal(samples)
	fmt.Printf("samples %s %s\n", sp.name, b)
	return res
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// maxRSSMB is the process's peak resident set, from /proc when available.
func maxRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) == 0 {
					break
				}
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// stamp prints the host and input identity every result is taken under.
// It runs from the checkout root.
func stamp(sp spec, seed int64, seconds, traced int) {
	commit := "unknown"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	s := map[string]any{
		"workload":      sp.name,
		"seed":          seed,
		"seconds":       seconds,
		"trace":         traced,
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest("."),
	}
	b, _ := json.Marshal(s)
	fmt.Printf("stamp %s\n", b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the checkout's Go sources and module files, so a
// result taken outside a git checkout still names the code it measured.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// mergeDigests adds seen to the digest file at path.
func mergeDigests(path string, seen map[string]string) error {
	f := digestFile{Seed: digestSeed, Cells: map[string]string{}}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for k, v := range seen {
		f.Cells[k] = v
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
