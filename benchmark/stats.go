package main

import (
	"math"
	"sort"
)

// summary describes one metric's in-run sample: what the benchmark
// prints beside the reported value so a reader can see how much the
// value rests on.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileSorted interpolates the q-quantile (0 <= q <= 1) of an
// ascending sample, the "linear" method: position q*(n-1).
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// median returns the sample median (NaN for an empty sample).
func median(xs []float64) float64 { return quantileSorted(sorted(xs), 0.5) }

// summarize computes the five-number summary of xs.
func summarize(xs []float64) summary {
	s := sorted(xs)
	if len(s) == 0 {
		return summary{}
	}
	return summary{
		N:      len(s),
		Min:    s[0],
		Q1:     quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.5),
		Q3:     quantileSorted(s, 0.75),
		Max:    s[len(s)-1],
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method,
// position q*(n+1)), because that is the rule the benchmark's
// acceptance spread is computed with. It needs two values or more.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the
// median: the steadiness figure a metric's bound is judged against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 || math.IsNaN(q1) {
		return math.NaN()
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// minBeyond is how many samples must lie beyond a percentile before
// it is reported: fewer, and the figure is one or two outliers.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule, and false when fewer than minBeyond samples lie
// beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), false
	}
	// Multiply first, and lean down a hair, so that a whole rank such
	// as 99 % of 1000 does not round up to the next one.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return s[rank-1], false
	}
	return s[rank-1], true
}

// highestPercentile picks the highest of p99.9, p99, p95, p90 that
// has minBeyond samples beyond it.
func highestPercentile(xs []float64) (p, v float64, ok bool) {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if v, ok := percentile(xs, p); ok {
			return p, v, true
		}
	}
	return 0, math.NaN(), false
}
