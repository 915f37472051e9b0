package main

import (
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks, or 0 when xs is empty. xs is sorted in place.
func quantile[T ~uint32 | ~float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return float64(xs[lo]) + float64(xs[hi]-xs[lo])*(pos-float64(lo))
}

func median[T ~uint32 | ~float64](xs []T) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the percentiles a latency may be reported at, highest
// first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// highestPercentile returns the highest percentile in tailPercentiles that
// has at least ten of n samples beyond it, or 0 when even the median has
// fewer than ten.
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		// The tolerance absorbs float error in 100-p (99.9 is inexact).
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// supports reports whether n samples support reporting percentile p.
func supports(n int, p float64) bool { return highestPercentile(n) >= p }

// tally counts operations attempted and failed, and keeps the first few
// failure reasons for the report.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(reason string) {
	t.attempted++
	t.failed++
	if len(t.reasons) < 8 {
		t.reasons = append(t.reasons, reason)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, r := range o.reasons {
		if len(t.reasons) < 8 {
			t.reasons = append(t.reasons, r)
		}
	}
}

func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// quiet returns the indices, in order, of a run's measurement intervals
// during which the hypervisor stole no more CPU from this machine than in
// the run's median interval: at least half of them. The benchmark shares
// its host with other machines; steal time is how their load shows inside
// this one, and intervals that lost more CPU to it measure the neighbours
// rather than the code.
func quiet(steals []float64) []int {
	limit := median(slices.Clone(steals))
	var idx []int
	for i, s := range steals {
		if s <= limit {
			idx = append(idx, i)
		}
	}
	return idx
}

// pick returns xs at the given indices.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, 0, len(idx))
	for _, i := range idx {
		out = append(out, xs[i])
	}
	return out
}

// stealAtStart is the host's steal time when the process started.
var stealAtStart = hostStealSeconds()

// hostStealSeconds reads the time this machine's virtual CPUs waited for
// the hypervisor (the steal column of /proc/stat, in USER_HZ ticks), or 0
// where it is not available. A run's share of steal explains outliers that
// come from other tenants of the host rather than from the code.
func hostStealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}
