package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/detect"
	"repro/internal/service"
	"repro/internal/sim/intern"
	"repro/internal/sim/trace"
	"repro/internal/toolio"
)

// layerBudget is the host time each layer replay below runs for.
const layerBudget = 150 * time.Millisecond

// repeatFor calls round until layerBudget has passed, at least once.
func repeatFor(round func() error) error {
	start := time.Now()
	for time.Since(start) < layerBudget {
		if err := round(); err != nil {
			return err
		}
	}
	return nil
}

// detectLayer replays the capture through the detector's public seam (the
// service path: intern + Ingest per sample, Analyze per window) and returns
// ns per ingested record and µs per analyzed window.
func detectLayer(log *trace.SampleLog) (ingestNS, analyzeUS float64, err error) {
	var ingest, analyze time.Duration
	var records, windows int
	err = repeatFor(func() error {
		tab := intern.NewTable(log.PageSize)
		det := detect.New(detect.DefaultConfig(), nil, nil, nil, tab, log.PageSize)
		for i, w := range log.Windows {
			samples := log.WindowSamples(i)
			t0 := time.Now()
			for _, s := range samples {
				tab.Intern(s.Addr)
				det.Ingest(s)
			}
			t1 := time.Now()
			det.Analyze(w.IntervalSec, w.Period)
			analyze += time.Since(t1)
			ingest += t1.Sub(t0)
			records += len(samples)
			windows++
		}
		return nil
	})
	return float64(ingest) / float64(max(records, 1)), float64(analyze) / 1e3 / float64(max(windows, 1)), err
}

// wireLayer encodes the capture as binary frames with toolio.BinWriter and
// decodes them back with toolio.BinReader, returning ns per record each way.
func wireLayer(log *trace.SampleLog) (encodeNS, decodeNS float64, err error) {
	var enc, dec time.Duration
	var encRecords, decRecords int
	var buf bytes.Buffer
	var cols toolio.SampleColumns
	rd := toolio.NewBinReader(nil)
	err = repeatFor(func() error {
		buf.Reset()
		w := toolio.NewBinWriter(&buf)
		t0 := time.Now()
		for i := range log.Windows {
			if err := encodeWindow(w, &cols, log, i, i); err != nil {
				return err
			}
		}
		enc += time.Since(t0)
		encRecords += log.Len()

		rd.Reset(bytes.NewReader(buf.Bytes()))
		n := 0
		t1 := time.Now()
		for {
			fr, err := rd.ReadFrame()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			if fr.Kind == toolio.WireSamplesKind[0] {
				n += fr.Samples.Len()
			}
		}
		dec += time.Since(t1)
		if n != log.Len() {
			return fmt.Errorf("wire round trip decoded %d of %d records", n, log.Len())
		}
		decRecords += n
		return nil
	})
	return float64(enc) / float64(max(encRecords, 1)), float64(dec) / float64(max(decRecords, 1)), err
}

// replayLayer times service.Replay, the offline advice path a tmid shard
// shares, in ns per record.
func replayLayer(log *trace.SampleLog) (float64, error) {
	var total time.Duration
	var records int
	err := repeatFor(func() error {
		t0 := time.Now()
		if _, err := service.Replay(log, log.PageSize, detect.DefaultConfig(), detect.DefaultPeriodController(), 1); err != nil {
			return err
		}
		total += time.Since(t0)
		records += log.Len()
		return nil
	})
	return float64(total) / float64(max(records, 1)), err
}
