package main

import (
	"math"
	"sort"
)

// summary is the printed form of one metric's samples: the median the
// metric is reported as, plus everything needed to judge how far that
// median can be trusted.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// summarize sorts a copy of xs and reduces it; the zero summary for no
// samples.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	q1, q3 := quartiles(s)
	return summary{N: len(s), Median: medianSorted(s), Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1]}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 { return medianSorted(sorted(xs)) }

// medianSorted is the middle sample, or the mean of the two middle ones.
func medianSorted(s []float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of a sorted sample by
// the exclusive method — the same rule as Python's
// statistics.quantiles(values, n=4), which is what the acceptance
// procedure computes spreads with, so the tool and the procedure agree
// on a given set of numbers. One sample is its own quartiles.
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	if n < 2 {
		return medianSorted(s), medianSorted(s)
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// tailPercentiles are the tail percentiles a latency may be reported
// at, each with the share of samples beyond it in parts per thousand
// (integers, so that the rule below is exact at its boundaries).
var tailPercentiles = []struct {
	p      float64
	beyond int
}{{90, 100}, {95, 50}, {99, 10}, {99.9, 1}}

// highestPercentile returns the highest tail percentile that still has
// at least ten samples beyond it, or 50 when the sample is too small for
// any tail: a p99 over 300 samples is three numbers, not a percentile.
func highestPercentile(n int) float64 {
	best := 50.0
	for _, t := range tailPercentiles {
		if n*t.beyond >= 10*1000 {
			best = t.p
		}
	}
	return best
}

// percentileSorted is the nearest-rank percentile of a sorted sample.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tail reports xs at percentile want, lowered to the highest percentile
// the sample size supports.
func tail(xs []float64, want float64) float64 {
	return percentileSorted(sorted(xs), math.Min(want, highestPercentile(len(xs))))
}
