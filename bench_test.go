// Benchmarks regenerating one representative configuration of every table
// and figure in the paper's evaluation. Each benchmark's custom metrics are
// the figures' y-axes (speedups, overhead percentages, event counts), so
// `go test -bench . -benchmem` prints a compact version of the evaluation;
// cmd/tmibench prints the full tables.
package repro_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/ccc"
	"repro/internal/toolio"
	"repro/tmi"
	"repro/tmi/workload"
	"repro/tmi/workloads"
)

func mustRun(b *testing.B, w workload.Workload, cfg tmi.Config) *tmi.Report {
	b.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	rep, err := tmi.Run(w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

func byName(b *testing.B, name string) workload.Workload {
	b.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkTable1Requirements measures the two quantitative rows of Table 1
// for TMI: overhead without contention and percent-of-manual speedup.
func BenchmarkTable1Requirements(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := mustRun(b, byName(b, "swaptions"), tmi.Config{System: tmi.Pthreads})
		det := mustRun(b, byName(b, "swaptions"), tmi.Config{System: tmi.TMIDetect, HugePages: true})
		fsBase := mustRun(b, byName(b, "histogramfs"), tmi.Config{System: tmi.Pthreads})
		man := mustRun(b, byName(b, "histogramfs-manual"), tmi.Config{System: tmi.Pthreads})
		prot := mustRun(b, byName(b, "histogramfs"), tmi.Config{System: tmi.TMIProtect})
		b.ReportMetric((det.SimSeconds/base.SimSeconds-1)*100, "overhead-%")
		b.ReportMetric(100*tmi.Speedup(fsBase, prot)/tmi.Speedup(fsBase, man), "%-of-manual")
	}
}

// BenchmarkTable2Matrix exercises the code-centric consistency decision
// matrix (pure computation; confirms it costs nothing at runtime).
func BenchmarkTable2Matrix(b *testing.B) {
	permitted := 0
	for i := 0; i < b.N; i++ {
		for _, x := range ccc.Classes() {
			for _, y := range ccc.Classes() {
				if ccc.Table2(x, y).PTSBPermitted {
					permitted++
				}
			}
		}
	}
	_ = permitted
}

// BenchmarkFig3WordTearing runs the AMBSA kernel under Sheriff (tears) and
// TMI (sound).
func BenchmarkFig3WordTearing(b *testing.B) {
	torn := 0
	for i := 0; i < b.N; i++ {
		rep := mustRun(b, workloads.WordTearing(true), tmi.Config{System: tmi.SheriffProtect})
		if !rep.Validated {
			torn++
		}
		ok := mustRun(b, workloads.WordTearing(true), tmi.Config{System: tmi.TMIProtect})
		if !ok.Validated {
			b.Fatal("TMI must preserve AMBSA")
		}
	}
	b.ReportMetric(float64(torn)/float64(b.N), "tear-rate")
}

// BenchmarkFig4PeriodSweep measures the sampling-period tradeoff on leveldb.
func BenchmarkFig4PeriodSweep(b *testing.B) {
	for _, period := range []int{1, 100, 1000} {
		b.Run(fmt.Sprintf("period=%d", period), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep := mustRun(b, byName(b, "leveldb-clean"),
					tmi.Config{System: tmi.TMIDetect, HugePages: true, Period: period})
				b.ReportMetric(rep.SimSeconds*1e3, "sim-ms")
				b.ReportMetric(float64(rep.RecordsSeen), "records")
			}
		})
	}
}

// BenchmarkFig7DetectionOverhead measures tmi-detect's overhead on a
// representative slice of the suite (full 35 rows: cmd/tmibench).
func BenchmarkFig7DetectionOverhead(b *testing.B) {
	for _, name := range []string{"swaptions", "kmeans", "canneal", "fluidanimate"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				base := mustRun(b, byName(b, name), tmi.Config{System: tmi.Pthreads})
				det := mustRun(b, byName(b, name), tmi.Config{System: tmi.TMIDetect, HugePages: true})
				b.ReportMetric((det.SimSeconds/base.SimSeconds-1)*100, "overhead-%")
			}
		})
	}
}

// BenchmarkFig8Memory measures the TMI-full memory footprint ratio.
func BenchmarkFig8Memory(b *testing.B) {
	for _, name := range []string{"swaptions", "fluidanimate", "ocean-ncp"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				base := mustRun(b, byName(b, name), tmi.Config{System: tmi.Pthreads})
				full := mustRun(b, byName(b, name), tmi.Config{System: tmi.TMIDetect, HugePages: true})
				b.ReportMetric(base.MemMB(), "base-MB")
				b.ReportMetric(full.MemMB(), "tmi-MB")
			}
		})
	}
}

// BenchmarkFig9RepairSpeedup measures TMI's repair speedup per FS benchmark.
func BenchmarkFig9RepairSpeedup(b *testing.B) {
	for _, w := range workloads.FSSuite() {
		name := w.Name()
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				base := mustRun(b, byName(b, name), tmi.Config{System: tmi.Pthreads})
				prot := mustRun(b, byName(b, name), tmi.Config{System: tmi.TMIProtect})
				if !prot.Validated {
					b.Fatalf("%s corrupted: %s", name, prot.ValidationErr)
				}
				b.ReportMetric(tmi.Speedup(base, prot), "speedup-x")
			}
		})
	}
}

// BenchmarkTable3Repair measures the repair characterization on leveldb.
func BenchmarkTable3Repair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := mustRun(b, byName(b, "leveldb"), tmi.Config{System: tmi.TMIProtect})
		b.ReportMetric(rep.MeanT2PMicros(), "t2p-us")
		b.ReportMetric(rep.CommitsPerSec, "commits/s")
	}
}

// BenchmarkFig10HugePages measures the 4 KiB-vs-huge-page tradeoff on a
// large-footprint workload.
func BenchmarkFig10HugePages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		small := mustRun(b, byName(b, "fft"), tmi.Config{System: tmi.TMIDetect})
		huge := mustRun(b, byName(b, "fft"), tmi.Config{System: tmi.TMIDetect, HugePages: true})
		b.ReportMetric((small.SimSeconds/huge.SimSeconds-1)*100, "4K-overhead-%")
	}
}

// BenchmarkFig11CannealSwaps runs the swap kernel under TMI (the corruption
// side is covered by tests; this measures the sound path's cost).
func BenchmarkFig11CannealSwaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := mustRun(b, workloads.CannealSwap(), tmi.Config{System: tmi.TMIProtect})
		if !rep.Validated {
			b.Fatal(rep.ValidationErr)
		}
	}
}

// BenchmarkFig12CholeskyFlag measures the flag kernel under TMI.
func BenchmarkFig12CholeskyFlag(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := mustRun(b, workloads.CholeskyFlag(), tmi.Config{System: tmi.TMIProtect})
		if rep.Hung || !rep.Validated {
			b.Fatal("cholesky-flag must complete under TMI")
		}
	}
}

// BenchmarkAblationPTSBEverywhere contrasts targeted protection with the
// §4.3 protect-everything ablation.
func BenchmarkAblationPTSBEverywhere(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := mustRun(b, byName(b, "histogramfs"), tmi.Config{System: tmi.Pthreads})
		targeted := mustRun(b, byName(b, "histogramfs"), tmi.Config{System: tmi.TMIProtect})
		everywhere := mustRun(b, byName(b, "histogramfs"), tmi.Config{System: tmi.TMIProtect, PTSBEverywhere: true})
		b.ReportMetric(tmi.Speedup(base, targeted), "targeted-x")
		b.ReportMetric(tmi.Speedup(base, everywhere), "everywhere-x")
	}
}

// BenchmarkSimulatorThroughput reports the simulator's own speed: simulated
// cycles per host-second on a representative run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mustRun(b, byName(b, "histogramfs"), tmi.Config{System: tmi.Pthreads})
	}
}

// BenchmarkWireDecodeBinary measures the binary columnar frame decode path
// (header + column reads + branch-free validation) on a 1024-record batch.
func BenchmarkWireDecodeBinary(b *testing.B) {
	const batch = 1024
	var enc bytes.Buffer
	bw := toolio.NewBinWriter(&enc)
	var cols toolio.SampleColumns
	for i := 0; i < batch; i++ {
		cols.Append(uint32(i%8), 0x10000+uint64(i%512)*8, 8, i%2 == 1)
	}
	if err := bw.WriteSamples(&cols); err != nil {
		b.Fatal(err)
	}
	frame := enc.Bytes()
	b.SetBytes(int64(len(frame)))
	r := bytes.NewReader(frame)
	rd := toolio.NewBinReader(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		rd.Reset(r)
		fr, err := rd.ReadFrame()
		if err != nil {
			b.Fatal(err)
		}
		if fr.Samples.Len() != batch {
			b.Fatal("short batch")
		}
	}
	b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "records/s")
}
