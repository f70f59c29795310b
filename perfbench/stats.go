package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles are the percentiles a timing may report as its tail, in
// ascending order. A timing reports the highest one that leaves at least
// minBeyond samples above it, so a tail figure always rests on that many
// observations rather than on a single outlier.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// minBeyond is the number of samples a reported percentile must leave
// above it.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted samples:
// the smallest sample with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond is the number of samples strictly above the nearest-rank p-th
// percentile's position.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// supportedTail is the highest of tailPercentiles that leaves at least
// minBeyond samples beyond it among n, or 0 when even the median does not.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n > 0 && beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// timing summarises one class of latencies in milliseconds.
type timing struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50_ms"`
	// Tail is the highest percentile the sample count supports (see
	// supportedTail); TailPct names it.
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail_ms"`
	Mean    float64 `json:"mean_ms"`
	Max     float64 `json:"max_ms"`

	sorted []float64
}

// summarize sorts a copy of ms and returns its summary.
func summarize(ms []float64) timing {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	t := timing{N: len(s), sorted: s}
	if len(s) == 0 {
		return t
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	t.P50 = percentile(s, 50)
	t.TailPct = supportedTail(len(s))
	if t.TailPct > 0 {
		t.Tail = percentile(s, t.TailPct)
	}
	t.Mean = sum / float64(len(s))
	t.Max = s[len(s)-1]
	return t
}

// at returns the p-th percentile of the summarised samples.
func (t timing) at(p float64) float64 { return percentile(t.sorted, p) }

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median of xs (mean of the middle pair for even counts); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
