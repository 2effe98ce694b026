package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidate tail percentiles, highest first. A
// summary reports the highest one that still leaves at least
// minBeyondTail samples above it, so a tail figure is never read off a
// handful of points.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

const minBeyondTail = 10

// summary is a sample's median plus its highest supported tail
// percentile, with the sample count they rest on.
type summary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"` // 0 when no candidate leaves ten samples beyond it
}

func sortedCopy(xs []float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted
}

// summarize reports the median and tail of xs.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := sortedCopy(xs)
	s.P50 = quantile(sorted, 0.5)
	s.Tail = sorted[len(sorted)-1]
	for _, p := range tailPercentiles {
		if len(sorted)-rank(len(sorted), p/100) >= minBeyondTail {
			s.TailPct = p
			s.Tail = quantile(sorted, p/100)
			break
		}
	}
	return s
}

// rank is the 1-based nearest rank of the q-quantile among n samples. The
// epsilon keeps q·n that should be whole (0.999·10000) from rounding up.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// quantile is the nearest-rank q-quantile of an ascending sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)-1]
}

// sum of a sample.
func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// median of an unsorted sample (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := sortedCopy(xs)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quarterGrowth is the median of the last quarter of xs over the median
// of its first quarter: how much slower the end of an ordered run of
// calls is than its start (1 means flat).
func quarterGrowth(xs []float64) float64 {
	q := len(xs) / 4
	if q == 0 {
		return math.NaN()
	}
	first := median(xs[:q])
	if first <= 0 {
		return math.NaN()
	}
	return median(xs[len(xs)-q:]) / first
}
