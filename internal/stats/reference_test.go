package stats

import (
	"math"
	"math/rand"
	"sort"
)

// refBootstrapMedianCI is the sort-per-round bootstrap as it shipped
// before rank counting, kept verbatim as the oracle for
// TestBootstrapMatchesReference.
func refBootstrapMedianCI(sample []float64, rounds int, alpha float64, seed int64) (lo, hi float64, err error) {
	if len(sample) == 0 {
		return 0, 0, ErrNoData
	}
	if rounds <= 0 {
		rounds = 1000
	}
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.05
	}
	rng := rand.New(rand.NewSource(seed))
	medians := make([]float64, rounds)
	resample := make([]float64, len(sample))
	for r := 0; r < rounds; r++ {
		for i := range resample {
			resample[i] = sample[rng.Intn(len(sample))]
		}
		sort.Float64s(resample)
		medians[r] = refQuantileSorted(resample, 0.5)
	}
	sort.Float64s(medians)
	lo = refQuantileSorted(medians, alpha/2)
	hi = refQuantileSorted(medians, 1-alpha/2)
	return lo, hi, nil
}

func refQuantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
