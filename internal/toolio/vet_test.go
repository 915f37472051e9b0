package toolio

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// sampleVetReport is a tmivet report with a confirmed, repaired finding
// and a waived one (also a FuzzReadReports seed).
func sampleVetReport() *VetReport {
	r := NewVetReport("tmivet")
	r.Add(VetFinding{
		ID: "testdata/srcvet/packed:Packed:line0", Pkg: "testdata/srcvet/packed",
		Region: "Packed", File: "packed.go", Line: 9, CacheLine: 0,
		Writers:      []string{"go packed.go:17", "go packed.go:22"},
		Spans:        "0-7 vs 8-15",
		Confirmation: ConfirmConfirmed,
		Repairs: []VetRepair{
			{Kind: "pad", Struct: "Packed", After: "A", Bytes: 56},
		},
	})
	r.Add(VetFinding{
		ID: "internal/x:buf:line1", Pkg: "internal/x", Region: "buf",
		File: "x.go", Line: 3, CacheLine: 1, Writers: []string{"go x.go:10", "go x.go:11"},
		Confirmation: ConfirmSkipped, Waived: true,
	})
	r.AddStat("packages", 2)
	return r
}

func TestVetReportRoundTrip(t *testing.T) {
	r := sampleVetReport()
	if r.OK {
		t.Fatalf("report with an unwaived finding must not be OK")
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadVetReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("round trip mismatch:\nwrote %+v\nread  %+v", r, got)
	}
	if got.Version != SchemaVersion {
		t.Fatalf("version = %d, want %d", got.Version, SchemaVersion)
	}
}

func TestVetReportWaivedOnlyIsOK(t *testing.T) {
	r := NewVetReport("tmivet")
	if !r.OK {
		t.Fatalf("empty report must be OK")
	}
	r.Add(VetFinding{ID: "a:b:line0", Waived: true, Confirmation: ConfirmSkipped})
	if !r.OK {
		t.Fatalf("all-waived report must stay OK")
	}
	r.Add(VetFinding{ID: "a:c:line0", Confirmation: ConfirmStaticOnly})
	if r.OK {
		t.Fatalf("unwaived finding must flip OK")
	}
}

func TestVetReportVersioning(t *testing.T) {
	// Pre-versioning documents normalize to version 1.
	got, err := ReadVetReport(strings.NewReader(`{"tool":"tmivet","ok":true,"findings":[]}`))
	if err != nil {
		t.Fatalf("legacy read: %v", err)
	}
	if got.Version != 1 {
		t.Fatalf("legacy version = %d, want 1", got.Version)
	}
	// Future documents are rejected.
	if _, err := ReadVetReport(strings.NewReader(`{"version":99,"tool":"tmivet","ok":true}`)); err == nil {
		t.Fatalf("future version must be rejected")
	}
}

func TestGrade(t *testing.T) {
	for _, g := range []string{ConfirmConfirmed, ConfirmStaticOnly, ConfirmSkipped} {
		if got, err := Grade(g); err != nil || got != g {
			t.Fatalf("Grade(%q) = %q, %v", g, got, err)
		}
	}
	if _, err := Grade("maybe"); err == nil {
		t.Fatalf("Grade must reject unknown strings")
	}
}
