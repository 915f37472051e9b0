package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"repro/internal/detect"
	"repro/internal/sim/trace"
	"repro/internal/toolio"
)

// This file is the session-migration surface of a Migratable tmid node —
// the mechanism the cluster routing tier (internal/cluster) rebalances
// shards with. A session's migratable state is exactly its captured
// trace.SampleLog: the destination rebuilds the detector by replaying the
// log through the same session code path every shard and the offline
// Replay use, so a migrated tenant's subsequent advice is byte-identical
// to an uninterrupted run. The wire format reuses the PR 8 binary columnar
// codec: an NDJSON hello line (tenant, page size) followed by samples and
// tick frames — a tick frame per closed window, trailing samples forming
// the open window.
//
// Endpoints:
//
//	GET  /v1/export?tenant=T   stream the tenant's log (hello + frames)
//	POST /v1/import            rebuild and install a session from a stream
//	POST /v1/migrate           {"tenant","target"}: export here, push to
//	                           target's /v1/import, cut this copy over
//
// Migration safety is the caller's cutover discipline plus this file's
// atomicity: export snapshots on the owning shard goroutine (never tears
// against ingest), import installs the fully rebuilt session in one shard
// job (a racing eviction or ingest sees no session or a whole one, never a
// half-replayed one), and the source deletes its copy only after the
// destination acks.

// migrateAck is the import/migrate response body.
type migrateAck struct {
	Migrated bool   `json:"migrated"`
	Tenant   string `json:"tenant,omitempty"`
	Records  int    `json:"records"`
	Windows  int    `json:"windows"`
}

// migrateRequest is /v1/migrate's request body.
type migrateRequest struct {
	Tenant string `json:"tenant"`
	Target string `json:"target"`
}

// writeMigrationStream serializes one captured sample log: the NDJSON
// hello, then binary columnar frames. Windows become (samples*, tick)
// runs; samples past the last window boundary trail as the open window.
func writeMigrationStream(w io.Writer, tenant string, log *trace.SampleLog) error {
	hello := toolio.WireHello{
		K: toolio.WireHelloKind, Version: toolio.SchemaVersion,
		Tenant: tenant, PageSize: log.PageSize, Wire: toolio.WireFormatBinary,
	}
	if _, err := w.Write(toolio.EncodeWire(hello)); err != nil {
		return err
	}
	bw := toolio.NewBinWriter(w)
	var cols toolio.SampleColumns
	lo := 0
	for i, win := range log.Windows {
		if err := writeSampleFrames(bw, &cols, log.Samples[lo:win.End], toolio.MaxWireBatch); err != nil {
			return err
		}
		if err := bw.WriteTick(toolio.WireTick{K: toolio.WireTickKind, Seq: i, IntervalSec: win.IntervalSec, Period: win.Period}); err != nil {
			return err
		}
		lo = win.End
	}
	return writeSampleFrames(bw, &cols, log.Samples[lo:], toolio.MaxWireBatch)
}

// readMigrationStream parses a migration stream back into a sample log.
// maxRecords caps the total (a runaway stream gets an error, not a node
// OOM); frame-level validation (column ranges, batch caps) is the binary
// codec's.
func readMigrationStream(br *bufio.Reader, maxFrame, maxRecords int) (tenant string, log *trace.SampleLog, err error) {
	line, err := toolio.ReadLine(br, nil, maxFrame)
	if err != nil {
		return "", nil, fmt.Errorf("migration stream: missing hello")
	}
	hello, err := toolio.DecodeWireMsg(line)
	if err != nil {
		return "", nil, err
	}
	if err := toolio.CheckHello(hello); err != nil {
		return "", nil, err
	}
	pageSize := hello.PageSize
	if pageSize == 0 {
		pageSize = 4096
	}
	log = &trace.SampleLog{PageSize: pageSize}
	rd := toolio.NewBinReader(br)
	rd.MaxPayload = maxFrame
	for {
		fr, err := rd.ReadFrame()
		if err == io.EOF {
			return hello.Tenant, log, nil
		}
		if err != nil {
			return "", nil, err
		}
		switch fr.Kind {
		case toolio.WireSamplesKind[0]:
			if len(log.Samples)+fr.Samples.Len() > maxRecords {
				return "", nil, fmt.Errorf("migration stream exceeds %d records", maxRecords)
			}
			for i := 0; i < fr.Samples.Len(); i++ {
				log.TapSample(detect.Sample{
					TID:   int(fr.Samples.TID[i]),
					Addr:  fr.Samples.Addr[i],
					Width: int(fr.Samples.Width[i]),
					Write: fr.Samples.Write[i] != 0,
				})
			}
		case toolio.WireTickKind[0]:
			if err := toolio.CheckTick(fr.Tick); err != nil {
				return "", nil, err
			}
			log.TapWindow(fr.Tick.IntervalSec, fr.Tick.Period)
		}
	}
}

// rebuildSession replays a migrated log through a fresh session — the same
// feed/advise path a shard runs — leaving the detector, the seen/ticks
// bookkeeping and the open window in exactly the source's state. The log
// is attached for capture only after the replay, so replaying does not
// double-append into it.
func rebuildSession(tenant string, log *trace.SampleLog, dcfg detect.Config, periods detect.PeriodController) (*session, error) {
	s, err := newSession(tenant, log.PageSize, dcfg)
	if err != nil {
		return nil, err
	}
	lo := 0
	for i, win := range log.Windows {
		s.feed(log.Samples[lo:win.End])
		// The rebuilt advice is discarded: the source already delivered it.
		s.advise(toolio.WireTick{K: toolio.WireTickKind, Seq: i, IntervalSec: win.IntervalSec, Period: win.Period}, periods, "")
		lo = win.End
	}
	s.feed(log.Samples[lo:])
	s.log = log
	return s, nil
}

// exportState fetches the tenant's snapshot through the owning shard.
func (s *Server) exportSnapshot(tenant string) (exportState, bool) {
	ch := make(chan exportState, 1)
	if !s.enqueue(s.shardFor(tenant), job{tenant: tenant, export: ch}) {
		return exportState{}, false
	}
	return <-ch, true
}

// handleExport streams one tenant's migratable snapshot.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.Migratable {
		http.Error(w, "tmid: node is not migratable (capture off)", http.StatusConflict)
		return
	}
	tenant := r.URL.Query().Get("tenant")
	if tenant == "" {
		http.Error(w, "tmid: export needs ?tenant=", http.StatusBadRequest)
		return
	}
	st, ok := s.exportSnapshot(tenant)
	if !ok {
		http.Error(w, "tmid: draining", http.StatusServiceUnavailable)
		return
	}
	if !st.ok {
		http.Error(w, "tmid: no session for tenant "+tenant, http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	writeMigrationStream(w, tenant, st.log)
}

// handleImport rebuilds a session from a migration stream and installs it,
// acking with the record/window counts the destination actually replayed.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.Migratable {
		http.Error(w, "tmid: node is not migratable (capture off)", http.StatusConflict)
		return
	}
	if s.draining.Load() {
		http.Error(w, "tmid: draining", http.StatusServiceUnavailable)
		return
	}
	br := bufio.NewReaderSize(r.Body, 256<<10)
	tenant, log, err := readMigrationStream(br, s.cfg.MaxFrameBytes, s.cfg.MaxMigrateRecords)
	if err != nil {
		s.metrics.migrateFailed.Add(1)
		http.Error(w, "tmid: "+err.Error(), http.StatusBadRequest)
		return
	}
	sess, err := rebuildSession(tenant, log, s.cfg.Detect, s.cfg.Periods)
	if err != nil {
		s.metrics.migrateFailed.Add(1)
		http.Error(w, "tmid: "+err.Error(), http.StatusBadRequest)
		return
	}
	installed := make(chan struct{})
	if !s.enqueue(s.shardFor(tenant), job{tenant: tenant, install: sess, installed: installed}) {
		s.metrics.migrateFailed.Add(1)
		http.Error(w, "tmid: draining", http.StatusServiceUnavailable)
		return
	}
	<-installed
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(migrateAck{Migrated: true, Tenant: tenant, Records: log.Len(), Windows: len(log.Windows)})
}

// handleMigrate pushes one tenant's session to a peer node: export here,
// import there, and delete the local copy only once the destination acks.
// A push that fails leaves the local session untouched, so a migration can
// be retried without loss; the caller (the cluster router) owns the other
// half of the safety argument — it stops forwarding the tenant's ingest
// before calling this and resumes against the destination after.
func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.Migratable {
		http.Error(w, "tmid: node is not migratable (capture off)", http.StatusConflict)
		return
	}
	if s.draining.Load() {
		// Draining is terminal here: shard queues are closing and a push
		// begun now may not finish. The router's DrainNode is the supported
		// way to move sessions off a node that is going away.
		http.Error(w, "tmid: draining", http.StatusServiceUnavailable)
		return
	}
	var req migrateRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "tmid: bad migrate request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Tenant == "" || req.Target == "" {
		http.Error(w, "tmid: migrate needs tenant and target", http.StatusBadRequest)
		return
	}
	if _, err := url.Parse(req.Target); err != nil {
		http.Error(w, "tmid: bad target: "+err.Error(), http.StatusBadRequest)
		return
	}
	st, ok := s.exportSnapshot(req.Tenant)
	if !ok {
		http.Error(w, "tmid: draining", http.StatusServiceUnavailable)
		return
	}
	if !st.ok {
		// Nothing to move is a clean no-op, not an error: the router calls
		// this for tenants that may never have sent a sample.
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(migrateAck{Migrated: false, Tenant: req.Tenant})
		return
	}

	ack, err := s.pushImport(req.Target, req.Tenant, st.log)
	if err != nil {
		s.metrics.migrateFailed.Add(1)
		http.Error(w, "tmid: migrate push: "+err.Error(), http.StatusBadGateway)
		return
	}
	// Destination acked: cut this copy over. The removal runs on the owning
	// shard, serialized against any straggling ingest for the tenant.
	removed := make(chan bool, 1)
	if s.enqueue(s.shardFor(req.Tenant), job{tenant: req.Tenant, remove: true, removed: removed}) {
		<-removed
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ack)
}

// pushImport streams a snapshot to target's /v1/import and returns its ack.
func (s *Server) pushImport(target, tenant string, log *trace.SampleLog) (migrateAck, error) {
	pr, pw := io.Pipe()
	go func() {
		bw := bufio.NewWriterSize(pw, 256<<10)
		err := writeMigrationStream(bw, tenant, log)
		if err == nil {
			err = bw.Flush()
		}
		pw.CloseWithError(err)
	}()
	req, err := http.NewRequest(http.MethodPost, target+"/v1/import", pr)
	if err != nil {
		return migrateAck{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	hc := &http.Client{Timeout: s.cfg.MigrateTimeout}
	resp, err := hc.Do(req)
	if err != nil {
		return migrateAck{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return migrateAck{}, fmt.Errorf("target answered %s: %s", resp.Status, body)
	}
	var ack migrateAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return migrateAck{}, fmt.Errorf("bad import ack: %w", err)
	}
	if ack.Records != log.Len() || ack.Windows != len(log.Windows) {
		return migrateAck{}, fmt.Errorf("import ack counts diverged: target replayed %d records / %d windows, source shipped %d / %d",
			ack.Records, ack.Windows, log.Len(), len(log.Windows))
	}
	return ack, nil
}
