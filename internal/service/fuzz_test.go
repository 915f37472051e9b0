package service

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"

	"repro/internal/sim/trace"
	"repro/internal/toolio"
)

// FuzzMigrationStream feeds arbitrary bytes to readMigrationStream, the
// reader behind /v1/import. Properties: no panic; an accepted log holds at
// most maxRecords samples; every window it accepted passes CheckTick; and
// the log, written back out, reads back equal.
func FuzzMigrationStream(f *testing.F) {
	const maxFrame, maxRecords = 1 << 20, 1 << 14
	// syntheticLog cut to two 16-sample windows and an open 8-sample
	// window: the same shapes, small enough that minimizing an input the
	// fuzzer finds interesting takes milliseconds, not the whole run.
	full := syntheticLog()
	short := &trace.SampleLog{PageSize: full.PageSize, Samples: full.Samples[:40]}
	for _, end := range []int{16, 32} {
		short.Windows = append(short.Windows, trace.SampleWindow{End: end, IntervalSec: full.Windows[0].IntervalSec, Period: full.Windows[0].Period})
	}
	var seed bytes.Buffer
	if err := writeMigrationStream(&seed, "fuzz-1", short); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	for name, interval := range hostileIntervals {
		var b bytes.Buffer
		if err := writeMigrationStream(&b, "fuzz-"+name, hostileTickLog(interval)); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		tenant, log, err := readMigrationStream(bufio.NewReader(bytes.NewReader(in)), maxFrame, maxRecords)
		if err != nil {
			return
		}
		if log.Len() > maxRecords {
			t.Fatalf("accepted %d records, cap %d", log.Len(), maxRecords)
		}
		for i, w := range log.Windows {
			if err := toolio.CheckTick(toolio.WireTick{Seq: i, IntervalSec: w.IntervalSec, Period: w.Period}); err != nil {
				t.Fatalf("accepted window %d: %v", i, err)
			}
		}
		var out bytes.Buffer
		if err := writeMigrationStream(&out, tenant, log); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		tenant2, log2, err := readMigrationStream(bufio.NewReader(&out), maxFrame, maxRecords)
		if err != nil {
			t.Fatalf("re-serialized log refused: %v", err)
		}
		if tenant2 != tenant || !reflect.DeepEqual(log2, log) {
			t.Fatalf("re-serialized log reads back as %q %+v, want %q %+v", tenant2, log2, tenant, log)
		}
	})
}
