package stats

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"

	"netfail/internal/lfg"
)

// BootstrapMedianCI estimates a confidence interval for the sample
// median by the percentile bootstrap: resample with replacement,
// recompute the median, and take the (alpha/2, 1-alpha/2) quantiles
// of the resampled medians. Deterministic in the seed.
//
// The paper reports bare medians; the interval quantifies how much
// weight to give small Table 5 differences (e.g. 10 s vs 12 s CPE
// durations) when judging reproduction quality.
//
// A round costs O(n), not a sort: the sample is ranked once, a round
// counts the ranks it draws, and the median's two order statistics
// are read off the running count. The draws, and so the medians, are
// those of sorting every resample.
func BootstrapMedianCI(sample []float64, rounds int, alpha float64, seed int64) (lo, hi float64, err error) {
	if len(sample) == 0 {
		return 0, 0, ErrNoData
	}
	if rounds <= 0 {
		rounds = 1000
	}
	if !(alpha > 0 && alpha < 1) {
		alpha = 0.05
	}
	var src lfg.Source
	src.Seed(seed)
	res := newMedianResampler(sample)
	medians := make([]float64, rounds)
	for r := range medians {
		medians[r] = res.round(&src)
	}
	sort.Float64s(medians)
	lo = quantileSorted(medians, alpha/2)
	hi = quantileSorted(medians, 1-alpha/2)
	return lo, hi, nil
}

// medianResampler draws resamples of one sample and returns their
// medians.
type medianResampler struct {
	// sorted is the sample in sort.Float64s order (NaNs first) and
	// rank[i] the place sample[i] took in it, ties each keeping a
	// place of their own.
	sorted []float64
	rank   []int32
	// count[k] is how often the current round drew sorted[k].
	count []int32
	// The median of n sorted values is quantileSorted's
	// v[lo]*(1-frac) + v[hi]*frac, or v[lo] alone when lo == hi.
	lo, hi int
	frac   float64
}

func newMedianResampler(sample []float64) *medianResampler {
	n := len(sample)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(sample[a], sample[b]) })
	m := &medianResampler{
		sorted: make([]float64, n),
		rank:   make([]int32, n),
		count:  make([]int32, n),
	}
	for k, i := range order {
		m.sorted[k] = sample[i]
		m.rank[i] = int32(k)
	}
	pos := 0.5 * float64(n-1)
	m.lo, m.hi = int(math.Floor(pos)), int(math.Ceil(pos))
	m.frac = pos - float64(m.lo)
	return m
}

// round draws len(sample) indices from src and returns the median of
// the values they name. Each draw is rand.New(src).Intn's — Int31n's
// rejection of the top 2^31 mod n values, then the remainder — taken
// straight from src; for a power of two nothing is rejected and the
// remainder is Int31n's mask. The remainder is Lemire's fastmod,
// exact for 32-bit operands: a multiply, not a divide.
func (m *medianResampler) round(src *lfg.Source) float64 {
	clear(m.count)
	n := uint64(len(m.rank))
	limit := int32(math.MaxInt32 - (1<<31)%uint32(n))
	inverse := ^uint64(0)/n + 1
	for i := uint64(0); i < n; i++ {
		v := int32(src.Int63() >> 32)
		for v > limit {
			v = int32(src.Int63() >> 32)
		}
		rem, _ := bits.Mul64(inverse*uint64(v), n)
		m.count[m.rank[rem]]++
	}
	// cum counts the draws at or below place k: place k holds the
	// resample's order statistics cum-count[k] … cum-1.
	k, cum := 0, int(m.count[0])
	for cum <= m.lo {
		k++
		cum += int(m.count[k])
	}
	vlo := m.sorted[k]
	if m.lo == m.hi {
		return vlo
	}
	for cum <= m.hi {
		k++
		cum += int(m.count[k])
	}
	return vlo*(1-m.frac) + m.sorted[k]*m.frac
}
