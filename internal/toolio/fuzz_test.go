package toolio

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// FuzzBinReader feeds arbitrary bytes to the frame reader, the only path
// samples and ticks take into tmid. Properties: no panic; a decoded batch
// never exceeds MaxWireBatch; every frame that decodes re-encodes to the
// exact bytes it was read from; and the relay's raw read sees the same
// frame boundaries and kinds as the decoder.
func FuzzBinReader(f *testing.F) {
	for _, tc := range binEdgeCases(f) {
		f.Add(tc.in)
	}
	f.Add(encodeFrames(f, func(bw *BinWriter) error {
		if err := bw.WriteSamples(sampleBatch(3)); err != nil {
			return err
		}
		if err := bw.WriteSamples(&SampleColumns{}); err != nil {
			return err
		}
		return bw.WriteTick(WireTick{Seq: 2, IntervalSec: 0.25, Period: 400})
	}))
	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		br := NewBinReader(r)
		raw := NewBinReader(bytes.NewReader(in))
		var out bytes.Buffer
		bw := NewBinWriter(&out)
		off := 0
		for {
			fr, err := br.ReadFrame()
			if err != nil {
				return
			}
			end := len(in) - r.Len()
			out.Reset()
			switch fr.Kind {
			case WireSamplesKind[0]:
				if n := fr.Samples.Len(); n > MaxWireBatch {
					t.Fatalf("decoded a batch of %d records, cap %d", n, MaxWireBatch)
				}
				err = bw.WriteSamples(fr.Samples)
			case WireTickKind[0]:
				err = bw.WriteTick(fr.Tick)
			default:
				t.Fatalf("decoded unknown frame kind 0x%02x", fr.Kind)
			}
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(out.Bytes(), in[off:end]) {
				t.Fatalf("frame at %d re-encodes differently:\nread   %x\nencode %x", off, in[off:end], out.Bytes())
			}
			kind, rawFrame, err := raw.ReadRawFrame()
			if err != nil || kind != fr.Kind || !bytes.Equal(rawFrame, in[off:end]) {
				t.Fatalf("raw read disagrees with decode at %d: kind %q err %v", off, kind, err)
			}
			off = end
		}
	})
}

// FuzzHello feeds arbitrary lines to DecodeWireMsg and CheckHello, the
// gate every stream and migration passes before any frame is read.
// Properties: no panic, and a hello that passes really satisfies every
// rule CheckHello states.
func FuzzHello(f *testing.F) {
	for _, tc := range helloCases() {
		line, err := json.Marshal(tc.m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	f.Add([]byte(`{"k":"h","tenant":"legacy","page_size":4096}`))
	f.Add([]byte(`{"k":"h","v":2,"tenant":"t","wire":"ndjson"}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		m, err := DecodeWireMsg(line)
		if err != nil {
			return
		}
		if m.K == "" {
			t.Fatal("decoded a message without a kind")
		}
		if CheckHello(m) != nil {
			return
		}
		ps := m.PageSize
		switch {
		case m.K != WireHelloKind:
			t.Fatalf("accepted kind %q as a hello", m.K)
		case m.Version < 0 || m.Version > SchemaVersion:
			t.Fatalf("accepted version %d", m.Version)
		case m.Tenant == "":
			t.Fatal("accepted a hello without tenant")
		case m.Wire != "" && m.Wire != WireFormatBinary:
			t.Fatalf("accepted wire format %q", m.Wire)
		case ps != 0 && (ps < MinWirePageSize || ps > MaxWirePageSize || ps&(ps-1) != 0):
			t.Fatalf("accepted page size %d", ps)
		}
	})
}

// FuzzReadReports feeds arbitrary bytes to the four report readers (the
// checker, suggest, vet and benchmark-trajectory documents CI and tmimc
// -apply read back from disk). Properties: no panic; an accepted document's
// version lies in [1, SchemaVersion]; and an accepted document, written and
// read back, is the same document (it writes the same bytes again).
func FuzzReadReports(f *testing.F) {
	r := NewReport("tmilint")
	r.Add(Finding{Workload: "histogramfs", Rule: "region-balance", Detail: "unbalanced"})
	r.AddStat("runs", 3)
	// Compact seeds: the fuzzer minimizes every new interesting input, and
	// indented documents make that crawl.
	for _, doc := range []any{r, sampleSuggestReport(), sampleVetReport(), sampleBenchReport()} {
		b, err := json.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, doc := range []string{
		`{"tool":"tmimc","ok":true,"findings":[]}`,
		`{"version":99,"tool":"tmivet","ok":true}`,
		`{"version":-1,"tool":"tmibench"}`,
		`{"tool":"tmilint"}`,
		`{"tool":"tmilint","workload":"w","clean":true,"repairs":[]}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkDoc(t, in, ReadReport, func(r *Report) int { return r.Version }, (*Report).Write)
		checkDoc(t, in, ReadSuggestReport, func(r *SuggestReport) int { return r.Version }, (*SuggestReport).Write)
		checkDoc(t, in, ReadVetReport, func(r *VetReport) int { return r.Version }, (*VetReport).Write)
		checkDoc(t, in, ReadBenchReport, func(r *BenchReport) int { return r.Version }, (*BenchReport).Write)
	})
}

// checkDoc asserts FuzzReadReports' properties for one reader.
func checkDoc[T any](t *testing.T, in []byte, read func(io.Reader) (*T, error), version func(*T) int, write func(*T, io.Writer) error) {
	t.Helper()
	doc, err := read(bytes.NewReader(in))
	if err != nil {
		return
	}
	if v := version(doc); v < 1 || v > SchemaVersion {
		t.Fatalf("%T: accepted version %d", doc, v)
	}
	var first, second bytes.Buffer
	if err := write(doc, &first); err != nil {
		t.Fatalf("%T: write: %v", doc, err)
	}
	back, err := read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("%T: re-read of a written document: %v\n%s", doc, err, first.Bytes())
	}
	if err := write(back, &second); err != nil {
		t.Fatalf("%T: re-write: %v", doc, err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("%T: document changed across write and read:\n%s\n%s", doc, first.Bytes(), second.Bytes())
	}
}
