// Package obs writes the Prometheus text exposition format (version
// 0.0.4) for tmid's and tmirouter's /metrics pages, and holds the one
// fixed-bucket histogram both keep. It is deliberately not a registry:
// each series has exactly one writer call on its owner's /metrics path,
// so a page is the sequence of calls that render it.
package obs

import (
	"fmt"
	"io"
	"slices"
	"sort"
)

// Histogram is a fixed-bucket histogram. It is not safe for concurrent
// use: owners guard it with their own lock and render a Snapshot.
type Histogram struct {
	Bounds []float64 // upper bounds, ascending; +Inf is implicit
	Counts []uint64  // per bucket, not cumulative; len(Bounds)+1
	Sum    float64
	Count  uint64
}

// NewHistogram returns an empty histogram over the given ascending upper
// bounds.
func NewHistogram(bounds ...float64) Histogram {
	return Histogram{Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}
}

// Observe adds one value.
func (h *Histogram) Observe(v float64) {
	h.Counts[sort.SearchFloat64s(h.Bounds, v)]++
	h.Sum += v
	h.Count++
}

// Snapshot returns a copy that later observations do not change.
func (h *Histogram) Snapshot() Histogram {
	s := *h
	s.Counts = slices.Clone(h.Counts)
	return s
}

// Header writes a family's HELP and TYPE lines.
func Header(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter writes a one-sample counter family.
func Counter(w io.Writer, name, help string, v uint64) {
	Header(w, name, help, "counter")
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// Gauge writes a one-sample gauge family.
func Gauge(w io.Writer, name, help string, v float64) {
	Header(w, name, help, "gauge")
	fmt.Fprintf(w, "%s %g\n", name, v)
}

// Sample writes one integer sample with a single label, under a family
// Header written before it.
func Sample[T int | int64 | uint64](w io.Writer, name, label, value string, v T) {
	fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, value, v)
}

// WriteHistogram writes a histogram family: cumulative buckets, the +Inf
// bucket, the sum and the count.
func WriteHistogram(w io.Writer, name, help string, h Histogram) {
	Header(w, name, help, "histogram")
	cum := uint64(0)
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum)
	}
	cum += h.Counts[len(h.Bounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
}
