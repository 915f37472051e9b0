package harness

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/detect"
	"repro/internal/service"
	"repro/tmi"
	"repro/tmi/workloads"
)

// ingestExp measures tmid's ingest throughput: one captured HITM trace
// streamed as binary frames by a fleet of concurrent clients against an
// in-process server. Every client's advice is checked byte-for-byte against
// the offline detector, so only runs that preserved parity count. The
// records/s lands in the benchmark trajectory via Options.Stat.
func ingestExp(o *Options) error {
	header(o, "Extension: tmid ingest throughput, binary frames")
	csv, err := csvFile(o, "ingest.csv")
	if err != nil {
		return err
	}
	defer csv.Close()
	csvLine(csv, "clients", "records", "seconds", "records_per_sec")

	w, err := workloads.ByName("histogramfs")
	if err != nil {
		return err
	}
	// Period 1 captures the densest trace the simulator can produce
	// (~500 records per window): the run is then decode-bound rather than
	// tick-round-trip-bound, which is the regime the binary frames target.
	rep, err := tmi.Run(w, tmi.Config{
		System: tmi.TMIDetect, Period: 1, HugePages: true,
		Seed: o.Seed, CaptureSamples: true,
	})
	if err != nil {
		return err
	}
	log := rep.SampleLog
	if log == nil || log.Len() == 0 {
		return fmt.Errorf("harness: histogramfs produced no captured samples")
	}
	// Enough volume per client that connection setup and the first-window
	// warmup are noise.
	const clients, minRecords = 16, 100_000
	repeat := 1
	for repeat*log.Len() < minRecords {
		repeat++
	}

	dcfg := detect.Config{
		ThresholdPerSec: detect.DefaultConfig().ThresholdPerSec,
		MinRecords:      detect.DefaultConfig().MinRecords,
	}
	want, err := service.Replay(log, log.PageSize, dcfg, detect.DefaultPeriodController(), repeat)
	if err != nil {
		return err
	}

	srv := service.New(service.Config{Shards: 4, QueueDepth: 1024})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := service.NewHTTPServer(srv.Handler())
	go hs.Serve(ln)
	defer func() {
		hs.Close()
		srv.Drain()
	}()
	base := "http://" + ln.Addr().String()

	fmt.Fprintf(o.Out, "trace: %d records x%d replay, %d clients\n\n", log.Len(), repeat, clients)
	fmt.Fprintf(o.Out, "%12s %10s %16s\n", "records", "seconds", "records/s")

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		records int
		runErr  error
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &service.Client{
				BaseURL:  base,
				Tenant:   fmt.Sprintf("ingest-%d", c),
				PageSize: log.PageSize,
			}
			res, err := cl.Replay(log, repeat)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil && runErr == nil:
				runErr = err
			case err == nil && !bytes.Equal(res.Advice, want) && runErr == nil:
				runErr = fmt.Errorf("client %d: advice diverged from offline replay", c)
			case err == nil:
				records += res.Records
			}
		}(c)
	}
	wg.Wait()
	if runErr != nil {
		return runErr
	}
	elapsed := time.Since(start).Seconds()
	rate := float64(records) / elapsed
	fmt.Fprintf(o.Out, "%12d %10.3f %16.0f\n", records, elapsed, rate)
	fmt.Fprintf(o.Out, "\nall advice parity-checked against the offline detector\n")
	csvLine(csv, clients, records, elapsed, rate)
	o.Stat("ingest_records_per_sec", rate)
	return nil
}
