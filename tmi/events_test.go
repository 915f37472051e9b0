package tmi_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/tmi"
)

// eventsCases are the systems and backends whose lifecycle logs
// TestRepairEventsGolden pins: every repair mechanism, LASER's and
// Plastic's line-granular ones, Sheriff's protect-all startup, and each
// tmi-protect backend on the two-socket machine.
var eventsCases = []struct {
	name string
	cfg  tmi.Config
}{
	{"laser", tmi.Config{System: tmi.LASER}},
	{"plastic", tmi.Config{System: tmi.Plastic}},
	{"sheriff-protect", tmi.Config{System: tmi.SheriffProtect}},
	{"tmi-protect/t2p/2s", tmi.Config{System: tmi.TMIProtect, RepairBackend: "t2p", Sockets: 2}},
	{"tmi-protect/pad/2s", tmi.Config{System: tmi.TMIProtect, RepairBackend: "pad", Sockets: 2}},
	{"tmi-protect/map/2s", tmi.Config{System: tmi.TMIProtect, RepairBackend: "map", Sockets: 2}},
	{"tmi-protect/tmebox/2s", tmi.Config{System: tmi.TMIProtect, RepairBackend: "tmebox", Sockets: 2}},
}

// eventsTranscript renders Report.Events of histogramfs (seed 1) under
// every eventsCases entry, one headed block per case.
func eventsTranscript(t *testing.T) string {
	var b strings.Builder
	for _, c := range eventsCases {
		c.cfg.Seed = 1
		rep := run(t, "histogramfs", c.cfg)
		fmt.Fprintf(&b, "== %s (%d events)\n", c.name, len(rep.Events))
		for _, e := range rep.Events {
			b.WriteString(e)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestRepairEventsGolden holds every repair mechanism's lifecycle log
// byte-identical to testdata/events_histogramfs.txt: which events a
// backend logs, in which order, at which simulated time.
func TestRepairEventsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/events_histogramfs.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := eventsTranscript(t); got != string(want) {
		t.Errorf("repair events differ from testdata/events_histogramfs.txt:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
