package harness

import (
	"fmt"

	"repro/internal/repair"
	"repro/tmi"
)

// residualRate is the final detection interval's HITM rate — the
// contention the backend failed to remove.
func residualRate(rep *tmi.Report) float64 {
	if len(rep.Timeline) == 0 {
		return 0
	}
	return rep.Timeline[len(rep.Timeline)-1].HITMPerSec
}

// backendActivity compacts a backend's stats into one table cell.
func backendActivity(rep *tmi.Report) string {
	a := rep.BackendActivity
	switch rep.RepairBackend {
	case repair.BackendPad:
		return fmt.Sprintf("%d lines", a.LinesIsolated)
	case repair.BackendMap:
		return fmt.Sprintf("%d moved", a.ThreadsMigrated)
	default:
		return fmt.Sprintf("%d pages", a.PagesProtected)
	}
}

// backendsExp sweeps workload x repair backend (repair.BackendNames, t2p
// first as the paper's mechanism) on the two-socket NUMA machine
// (remote-socket HITM and fill penalties active) and renders the
// per-workload policy table: which strategy repairs each workload best,
// what it costs, and how much contention it leaves behind.
func backendsExp(o *Options) error {
	header(o, "Extension: repair-backend sweep, workload x {t2p, pad, map, tmebox} (two-socket NUMA)")
	csv, err := csvFile(o, "repair_backends.csv")
	if err != nil {
		return err
	}
	defer csv.Close()
	csvLine(csv, "workload", "backend", "runtime_ms", "speedup", "residual_hitm_per_sec",
		"pages_protected", "lines_isolated", "threads_migrated", "failed_repairs")

	const sockets = 2
	type row struct {
		base *cell
		byB  map[string]*cell
	}
	rows := make([]row, len(fsNames))
	for i, name := range fsNames {
		rows[i] = row{
			base: o.submit(fsWorkload(name), tmi.Config{System: tmi.Pthreads, Sockets: sockets}),
			byB:  map[string]*cell{},
		}
		for _, b := range repair.BackendNames {
			rows[i].byB[b] = o.submit(fsWorkload(name),
				tmi.Config{System: tmi.TMIProtect, RepairBackend: b, Sockets: sockets})
		}
	}

	fmt.Fprintf(o.Out, "%-14s", "workload")
	for _, b := range repair.BackendNames {
		fmt.Fprintf(o.Out, " %9s", b)
	}
	fmt.Fprintf(o.Out, "   %-8s %s\n", "best", "best backend activity / residual HITM/s")

	wins := map[string]int{}
	for i, name := range fsNames {
		base, err := rows[i].base.mean()
		if err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "%-14s", name)
		bestName, bestSpeed := "", 0.0
		var bestRep *tmi.Report
		for _, b := range repair.BackendNames {
			rep, err := rows[i].byB[b].mean()
			if err != nil {
				return err
			}
			s := tmi.Speedup(base, rep)
			fmt.Fprintf(o.Out, " %8.2fx", s)
			if s > bestSpeed {
				bestName, bestSpeed, bestRep = b, s, rep
			}
			a := rep.BackendActivity
			csvLine(csv, name, b, rep.SimSeconds*1e3, s, residualRate(rep),
				a.PagesProtected, a.LinesIsolated, a.ThreadsMigrated, a.FailedRepairs)
		}
		wins[bestName]++
		fmt.Fprintf(o.Out, "   %-8s %s / %.0f\n", bestName, backendActivity(bestRep), residualRate(bestRep))
	}

	fmt.Fprintf(o.Out, "\npolicy table (workloads each backend repairs best):")
	for _, b := range repair.BackendNames {
		fmt.Fprintf(o.Out, " %s=%d", b, wins[b])
		o.Stat("repair_backends/wins_"+b, float64(wins[b]))
	}
	fmt.Fprintf(o.Out, "\nno single strategy dominates: padding wins when the flagged lines are few and\n")
	fmt.Fprintf(o.Out, "re-layout is cheap, t2p/tmebox when whole pages need isolating, and mapping\n")
	fmt.Fprintf(o.Out, "trades compute for locality — the detector's advice picks per workload\n")
	return nil
}
