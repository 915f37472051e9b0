package toolio

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// This file defines tmid's NDJSON control plane: the hello that opens a
// stream, and the per-tick advice and error lines the service streams
// back. One JSON object per line, discriminated by the one-byte "k" field.
// The schema is versioned by SchemaVersion, carried in the hello, so the
// wire format and the tool-output documents share a single version axis.
// Samples and ticks — the data plane — travel as the binary frames defined
// in wirebin.go; only the hello before them is a line.
//
// A stream is:
//
//	→ {"k":"h","v":3,"tenant":"run-42","page_size":4096,"wire":"binary"}
//	→ samples frame                                  (any number)
//	→ tick frame (seq 0)
//	← {"k":"a","seq":0,"records":37,"next_period":100,...}
//	→ ... more sample/tick rounds ...
//
// The paper's detector consumes resolved (address, width, kind) records —
// exactly the samples payload — once disassembly has run client-side; a
// load replay pushes 10^5..10^7 of them per client, which is why they are
// packed as columns rather than JSON.
//
// Message kinds: the "k" field of a line (hello, advice, error), and the
// kind byte of a binary frame (samples, tick).
const (
	WireHelloKind   = "h"
	WireSamplesKind = "s"
	WireTickKind    = "t"
	WireAdviceKind  = "a"
	WireErrorKind   = "e"
)

// WireHello opens a stream: schema version, tenant identity (the sharding
// key — one detector session exists per tenant), and the tenant's page size
// (advice pages are page-aligned in it). Wire names the encoding of the
// rest of the request body: "" and "binary" both mean the columnar frames
// defined in wirebin.go. Schema v2 read "" as NDJSON samples, so clients
// send "binary" explicitly.
type WireHello struct {
	K        string `json:"k"`
	Version  int    `json:"v"`
	Tenant   string `json:"tenant"`
	PageSize int    `json:"page_size"`
	Wire     string `json:"wire,omitempty"`
}

// WireTick closes the current analysis window: all samples since the
// previous tick were collected over IntervalSec simulated seconds at the
// given sampling period. Seq numbers ticks from 0 within the stream. It
// travels only as a binary tick frame (wirebin.go).
type WireTick struct {
	K           string
	Seq         int
	IntervalSec float64
	Period      int
}

// WireLine is one classified cache line in an advice message.
type WireLine struct {
	Line         uint64  `json:"line"`
	Class        string  `json:"class"`
	Records      int     `json:"records"`
	EstPerSec    float64 `json:"est_per_sec"`
	DroppedSpans int     `json:"dropped_spans,omitempty"`
}

// WireAdvice is the service's per-tick reply: the pages to isolate (the
// offline detector's repair request, page-aligned) with the lines that
// crossed the threshold, plus NextPeriod — the adaptive sampling-period
// feedback the client should program before the next window. Backend is
// the service's repair-strategy recommendation for the flagged pages
// (schema v2; present only when a recommendation policy is configured and
// the advice carries pages — it is additive and never perturbs the other
// fields).
type WireAdvice struct {
	K          string     `json:"k"`
	Seq        int        `json:"seq"`
	Records    uint64     `json:"records"`
	NextPeriod int        `json:"next_period"`
	Backend    string     `json:"backend,omitempty"`
	Pages      []uint64   `json:"pages,omitempty"`
	Lines      []WireLine `json:"lines,omitempty"`
}

// WireError aborts a stream (overload mid-stream, malformed input). RetryMs
// > 0 invites the client to retry after that backoff.
type WireError struct {
	K       string `json:"k"`
	Error   string `json:"error"`
	RetryMs int    `json:"retry_ms,omitempty"`
}

// WireMsg is the decode-side union of the control-plane kinds (hello,
// advice, error): NDJSON lines are decoded into it and dispatched on K.
type WireMsg struct {
	K          string     `json:"k"`
	Version    int        `json:"v,omitempty"`
	Tenant     string     `json:"tenant,omitempty"`
	PageSize   int        `json:"page_size,omitempty"`
	Wire       string     `json:"wire,omitempty"`
	Seq        int        `json:"seq,omitempty"`
	Records    uint64     `json:"records,omitempty"`
	NextPeriod int        `json:"next_period,omitempty"`
	Backend    string     `json:"backend,omitempty"`
	Pages      []uint64   `json:"pages,omitempty"`
	Lines      []WireLine `json:"lines,omitempty"`
	Error      string     `json:"error,omitempty"`
	RetryMs    int        `json:"retry_ms,omitempty"`
}

// DecodeWireMsg parses one NDJSON line (a trailing newline is allowed). It
// checks only that the line is JSON with a kind; CheckHello validates a
// hello's fields.
func DecodeWireMsg(line []byte) (*WireMsg, error) {
	var m WireMsg
	if err := json.Unmarshal(line, &m); err != nil {
		return nil, fmt.Errorf("toolio: bad wire line: %w", err)
	}
	if m.K == "" {
		return nil, fmt.Errorf("toolio: wire line without kind")
	}
	return &m, nil
}

// ReadLine reads one NDJSON line into buf (reused across calls) and
// returns it with its newline; a final unterminated line gets one
// appended. maxLen caps the line (0 means MaxWireLine). A clean end of
// input before any byte returns io.EOF.
func ReadLine(br *bufio.Reader, buf []byte, maxLen int) ([]byte, error) {
	if maxLen <= 0 {
		maxLen = MaxWireLine
	}
	buf = buf[:0]
	for {
		frag, err := br.ReadSlice('\n')
		buf = append(buf, frag...)
		if len(buf) > maxLen {
			return nil, fmt.Errorf("toolio: wire line exceeds %d bytes", maxLen)
		}
		switch {
		case err == nil:
			return buf, nil
		case errors.Is(err, bufio.ErrBufferFull):
			continue
		case errors.Is(err, io.EOF):
			if len(buf) == 0 {
				return nil, io.EOF
			}
			return append(buf, '\n'), nil
		default:
			return nil, err
		}
	}
}

// EncodeWire marshals any wire message struct as one NDJSON line,
// newline-terminated. Marshaling is deterministic (struct field order), so
// two producers rendering the same advice produce identical bytes — the
// property the tmid/offline parity check rests on.
func EncodeWire(msg any) []byte {
	b, err := json.Marshal(msg)
	if err != nil {
		// All wire structs are plain data; a marshal failure is a programming
		// error, not an input error.
		panic(fmt.Sprintf("toolio: wire marshal: %v", err))
	}
	return append(b, '\n')
}
