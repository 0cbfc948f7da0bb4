package main

import (
	"testing"
	"time"
)

// samplesBeyond counts the samples above percentile p in a series of n.
func samplesBeyond(n, p int) int { return n - rank(n, p) }

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{19, 0},       // the median leaves 9 samples beyond it
		{20, 5000},    // ... and 10 at n=20
		{99, 5000},    // p90 leaves 9
		{100, 9000},   // ... and 10
		{999, 9000},   // p99 leaves 9
		{1000, 9900},  // ... and 10
		{9999, 9900},  // p99.9 leaves 9
		{10000, 9990}, // ... and 10
		{99999, 9990},
		{100000, 9999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && samplesBeyond(c.n, p) < 10 {
			t.Errorf("n=%d: p%d leaves %d samples beyond", c.n, p, samplesBeyond(c.n, p))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 100; i >= 1; i-- {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct {
		p    int
		want float64
	}{{5000, 50}, {9000, 90}, {9900, 99}, {9999, 100}} {
		if got := percentile(ds, c.p); got != c.want {
			t.Errorf("p%d = %v ms, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 5000); got != 0 {
		t.Errorf("percentile of no samples = %v", got)
	}
}

// Spreads between quartiles are commonly recomputed from result files
// with Python's statistics module; these are its outputs for the same
// inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q3, md float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 5.5},
		{[]float64{3, 1, 2}, 1, 3, 2},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 7, 4},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 || median(c.xs) != c.md {
			t.Errorf("%v: quartiles %v %v median %v, want %v %v %v", c.xs, q1, q3, median(c.xs), c.q1, c.q3, c.md)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != (8.25-2.75)/5.5 {
		t.Errorf("spread = %v", got)
	}
}
