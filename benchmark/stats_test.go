package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{3, 1}, 2},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 4, 3, 2, 1}, 3},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// TestQuartilesMatchPython pins the quartile rule against values
// computed with statistics.quantiles(xs, n=4): the acceptance procedure
// uses that function, and the two must agree on the same numbers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2.2, 2.4, 2.6, 2.7, 3.2}, 2.3, 2.95},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if q1, q3 := quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Errorf("one sample should be its own quartiles, got %v, %v", q1, q3)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{3, 1, 2, 5, 4})
	want := summary{N: 5, Median: 3, Q1: 1.5, Q3: 4.5, Min: 1, Max: 5}
	if s != want {
		t.Errorf("summarize = %+v, want %+v", s, want)
	}
	if !near(s.spread(), 1) {
		t.Errorf("spread = %v, want 1", s.spread())
	}
	if (summarize(nil) != summary{}) {
		t.Error("summary of nothing should be zero")
	}
}

// TestHighestPercentile pins the rule that a tail percentile is reported
// only with at least ten samples beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {99, 50}, // fewer than ten samples beyond p90
		{100, 90}, {199, 90},
		{200, 95}, {336, 95}, // the daemon workload's puts: p95, not p99
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestTailFallsBack(t *testing.T) {
	xs := make([]float64, 336)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 336..1, unsorted on purpose
	}
	if v := tail(xs, 95); v != 320 { // ceil(0.95*336) = 320
		t.Errorf("tail(336 samples, 95) = %v, want 320", v)
	}
	if v := tail(xs, 99); v != 320 {
		t.Errorf("tail(336 samples, 99) = %v, want the p95, 320", v)
	}
	if v, want := tail(xs[:56], 95), percentileSorted(sorted(xs[:56]), 50); v != want {
		t.Errorf("tail(56 samples, 95) = %v, want the p50, %v", v, want)
	}
	if v := percentileSorted([]float64{10, 20, 30, 40}, 50); v != 20 {
		t.Errorf("nearest-rank p50 of four = %v, want 20", v)
	}
}
