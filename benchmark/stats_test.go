package main

import (
	"math"
	"testing"
)

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{16, 0, false}, // 16 samples support no tail at all
		{99, 0, false},
		{100, 90, true}, // exactly 10 samples beyond p90
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{4000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := highestPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000 down to 1, unsorted on purpose
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(xs, 100); got != 1000 {
		t.Errorf("p100 of 1..1000 = %v, want 1000", got)
	}
}

// The expected values are Python's statistics.quantiles(v, n=4), the
// driver's own measure.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		values []float64
		want   float64
	}{
		// quantiles([1..10]) = [2.75, 5.5, 8.25]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		// quantiles([10, 12]) = [9.5, 11.0, 12.5]
		{[]float64{12, 10}, (12.5 - 9.5) / 11},
		// quantiles([1, 2, 4, 8, 16]) = [1.5, 4.0, 12.0]
		{[]float64{16, 1, 4, 2, 8}, (12.0 - 1.5) / 4},
	} {
		got, ok := quartileSpread(tc.values)
		if !ok || math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, %v; want %v", tc.values, got, ok, tc.want)
		}
	}
	if _, ok := quartileSpread([]float64{1}); ok {
		t.Error("one value has no spread")
	}
}
