package toolio

import (
	"bytes"
	"strings"
	"testing"
)

// sampleSuggestReport is a clean two-repair suggest report (also a
// FuzzReadReports seed).
func sampleSuggestReport() *SuggestReport {
	rep := NewSuggestReport("tmilint", "litmus-brokenfence")
	rep.Clean = true
	rep.Repairs = append(rep.Repairs,
		SuggestRepair{Site: "brokenfence.load_flag", Kind: "atomic", Order: "acquire", Reason: "delay"},
		SuggestRepair{Site: "brokenfence.store_flag", Kind: "atomic", Order: "release"},
	)
	return rep
}

func TestSuggestReportRoundTrip(t *testing.T) {
	rep := sampleSuggestReport()
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSuggestReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != SchemaVersion {
		t.Errorf("version %d, want %d", got.Version, SchemaVersion)
	}
	if got.Tool != "tmilint" || got.Workload != "litmus-brokenfence" || !got.Clean {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Repairs) != 2 || got.Repairs[0] != rep.Repairs[0] || got.Repairs[1] != rep.Repairs[1] {
		t.Errorf("repairs did not round-trip: %+v", got.Repairs)
	}
}

func TestSuggestReportRejectsFutureVersion(t *testing.T) {
	doc := `{"version": 99, "tool": "tmilint", "workload": "w", "clean": true, "repairs": []}`
	_, err := ReadSuggestReport(strings.NewReader(doc))
	if err == nil {
		t.Fatal("future-version suggest report accepted")
	}
	if !strings.Contains(err.Error(), "newer") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestSuggestReportPreVersioningReadAsV1(t *testing.T) {
	doc := `{"tool": "tmilint", "workload": "w", "clean": true, "repairs": []}`
	rep, err := ReadSuggestReport(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 1 {
		t.Errorf("pre-versioning document read as version %d, want 1", rep.Version)
	}
}
