package main

import (
	"sort"
	"time"
)

// ladder lists the percentiles a latency series may be reported at, in
// hundredths of a percent (9900 is p99).
var ladder = []int{5000, 9000, 9900, 9990, 9999}

// rank returns the 1-based nearest-rank position of percentile p (in
// hundredths of a percent) in a sorted series of n samples.
func rank(n, p int) int {
	k := (n*p + 9999) / 10000
	if k < 1 {
		k = 1
	}
	return k
}

// tailPercentile is the percentile rule for reporting a timing: the
// highest percentile of the ladder that still has at least ten samples
// beyond it. It returns 0 when a series of n samples cannot support even
// the median.
func tailPercentile(n int) int {
	best := 0
	for _, p := range ladder {
		if n-rank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank percentile p (hundredths of a
// percent) of the durations, in milliseconds. The input is sorted in
// place.
func percentile(ds []time.Duration, p int) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ms(ds[rank(len(ds), p)-1])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median is Python's statistics.median: the middle value, or the mean of
// the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles is Python's statistics.quantiles(xs, n=4) with its default
// exclusive method, so that spreads computed here match the ones any
// reader recomputes from a result file. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
