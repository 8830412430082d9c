// Package stats provides the small statistical toolkit the comparison
// needs: order statistics, empirical CDFs, and the two-sample
// Kolmogorov–Smirnov goodness-of-fit test the paper uses to decide
// which failure metrics syslog reproduces faithfully (§4.2).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrNoData is returned by functions that cannot operate on an empty
// sample.
var ErrNoData = errors.New("stats: empty sample")

// Summary holds the three order statistics the paper reports for every
// metric in Table 5.
type Summary struct {
	Median float64
	Mean   float64
	P95    float64
	N      int
}

// Summarize computes median, mean, and 95th percentile of the sample.
func Summarize(sample []float64) (Summary, error) {
	if len(sample) == 0 {
		return Summary{}, ErrNoData
	}
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return Summary{
		Median: quantileSorted(sorted, 0.5),
		Mean:   sum / float64(len(sorted)),
		P95:    quantileSorted(sorted, 0.95),
		N:      len(sorted),
	}, nil
}

// quantileSorted is the q-quantile (0 ≤ q ≤ 1) of sorted, interpolated.
func quantileSorted(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	// xs holds the sorted sample.
	xs []float64
}

// NewECDF builds an ECDF over the sample. The sample is copied.
func NewECDF(sample []float64) *ECDF {
	xs := append([]float64(nil), sample...)
	sort.Float64s(xs)
	return &ECDF{xs: xs}
}

// Len returns the sample size.
func (e *ECDF) Len() int { return len(e.xs) }

// Points returns (x, F(x)) pairs suitable for plotting a CDF curve,
// one per distinct sample value.
func (e *ECDF) Points() (xs, ys []float64) {
	n := len(e.xs)
	for i := 0; i < n; {
		j := i
		for j < n && e.xs[j] == e.xs[i] {
			j++
		}
		xs = append(xs, e.xs[i])
		ys = append(ys, float64(j)/float64(n))
		i = j
	}
	return xs, ys
}

// KSResult is the outcome of a two-sample Kolmogorov–Smirnov test.
type KSResult struct {
	// D is the KS statistic: the maximum distance between the two
	// empirical CDFs.
	D float64
	// PValue is the asymptotic two-tailed p-value.
	PValue float64
	// N1, N2 are the sample sizes.
	N1, N2 int
}

// Consistent reports whether the test fails to reject the null
// hypothesis (same distribution) at the given significance level,
// i.e. whether the two data sources produce statistically consistent
// data for this metric in the paper's sense.
func (r KSResult) Consistent(alpha float64) bool { return r.PValue > alpha }

// KSTest runs the two-tailed two-sample Kolmogorov–Smirnov test.
func KSTest(a, b []float64) (KSResult, error) {
	if len(a) == 0 || len(b) == 0 {
		return KSResult{}, ErrNoData
	}
	x := append([]float64(nil), a...)
	y := append([]float64(nil), b...)
	sort.Float64s(x)
	sort.Float64s(y)

	var d float64
	i, j := 0, 0
	n1, n2 := float64(len(x)), float64(len(y))
	for i < len(x) && j < len(y) {
		v := math.Min(x[i], y[j])
		for i < len(x) && x[i] <= v {
			i++
		}
		for j < len(y) && y[j] <= v {
			j++
		}
		diff := math.Abs(float64(i)/n1 - float64(j)/n2)
		if diff > d {
			d = diff
		}
	}
	ne := n1 * n2 / (n1 + n2)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	return KSResult{D: d, PValue: ksQ(lambda), N1: len(x), N2: len(y)}, nil
}

// ksQ evaluates the Kolmogorov distribution tail
// Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} e^{−2k²λ²}, the asymptotic p-value.
func ksQ(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	const eps1, eps2 = 1e-6, 1e-16
	sum, prevTerm := 0.0, 0.0
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * 2 * math.Exp(-2*float64(k*k)*lambda*lambda)
		sum += term
		if math.Abs(term) <= eps1*prevTerm || math.Abs(term) <= eps2*sum {
			if sum < 0 {
				return 0
			}
			if sum > 1 {
				return 1
			}
			return sum
		}
		prevTerm = math.Abs(term)
		sign = -sign
	}
	return 1 // failed to converge: no evidence against H0
}
