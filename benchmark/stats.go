package main

import (
	"math"
	"sort"
)

// median returns the middle of the samples (mean of the two middle
// ones for an even count); 0 for none. It sorts a copy.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPerMille are the percentiles a timing's tail may be reported
// at, highest first, in thousandths (999 is p99.9).
var tailPerMille = []int{999, 990, 950, 900}

// minBeyond is how many samples must lie beyond a percentile for it
// to be reported: a p99 needs 1000 samples.
const minBeyond = 10

// highestPercentile picks the highest reportable percentile for a
// sample count: the first of tailPerMille with at least minBeyond
// samples beyond it. ok is false when none qualifies (16 samples
// support no tail at all).
func highestPercentile(n int) (p float64, ok bool) {
	for _, pm := range tailPerMille {
		if n*(1000-pm) >= minBeyond*1000 {
			return float64(pm) / 10, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of the samples.
func percentile(samples []float64, p float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(n)/100)) - 1
	return s[min(max(i, 0), n-1)]
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles placed as Python's
// statistics.quantiles(values, n=4) places them (the "exclusive"
// method) — the driver's own noise measure. It needs two values.
func quartileSpread(values []float64) (spread float64, ok bool) {
	n := len(values)
	if n < 2 {
		return 0, false
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	quantile := func(k int) float64 { // k-th of 4
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0, false
	}
	return (quantile(3) - quantile(1)) / math.Abs(med), true
}
