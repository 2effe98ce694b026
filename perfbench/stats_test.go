package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so summarize must sort
	}
	return xs
}

func TestSummarizePicksHighestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n       int
		pct     float64
		tail    float64
		p50     float64
		comment string
	}{
		{n: 10000, pct: 99.9, tail: 9990, p50: 5000, comment: "ten samples beyond p99.9"},
		{n: 1000, pct: 99, tail: 990, p50: 500, comment: "ten beyond p99, one beyond p99.9"},
		{n: 999, pct: 95, tail: 950, p50: 500, comment: "9.99 beyond p99 is not enough"},
		{n: 100, pct: 90, tail: 90, p50: 50, comment: "ten beyond p90"},
		{n: 20, pct: 50, tail: 10, p50: 10, comment: "ten beyond the median"},
		{n: 19, pct: 0, tail: 19, p50: 10, comment: "no percentile supported: the maximum, flagged 0"},
	} {
		s := summarize(seq(tc.n))
		if s.N != tc.n || s.TailPct != tc.pct || s.Tail != tc.tail || s.P50 != tc.p50 {
			t.Errorf("n=%d (%s): got %+v, want pct %v tail %v p50 %v", tc.n, tc.comment, s, tc.pct, tc.tail, tc.p50)
		}
	}
	if s := summarize(nil); s.N != 0 || s.TailPct != 0 {
		t.Errorf("empty sample: got %+v", s)
	}
}

func TestMedianAndGrowth(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	// First quarter around 1, last quarter around 4.
	xs := []float64{1, 1, 2, 2, 3, 3, 4, 4}
	if g := quarterGrowth(xs); g != 4 {
		t.Errorf("growth = %v, want 4", g)
	}
}
