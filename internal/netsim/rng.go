package netsim

import (
	"math"
	"math/rand"
	"time"

	"netfail/internal/lfg"
)

// rng wraps math/rand, drawing rand.NewSource's stream from an
// lfg.Source, with the distribution helpers the workload and
// impairment models need.
type rng struct {
	*rand.Rand
	src lfg.Source
}

func newRNG(seed int64) *rng {
	r := new(rng)
	r.Rand = rand.New(&r.src)
	r.Seed(seed)
	return r
}

// bernoulli returns true with probability p.
func (r *rng) bernoulli(p float64) bool {
	return r.Float64() < p
}

// uniformDur draws uniformly from [lo, hi).
func (r *rng) uniformDur(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(r.Int63n(int64(hi-lo)))
}

// expDur draws an exponential duration with the given mean.
func (r *rng) expDur(mean time.Duration) time.Duration {
	return time.Duration(r.ExpFloat64() * float64(mean))
}

// lognormalDur draws a lognormal duration with the given median and
// log-space sigma.
func (r *rng) lognormalDur(median time.Duration, sigma float64) time.Duration {
	return time.Duration(float64(median) * math.Exp(sigma*r.NormFloat64()))
}

// lognormal draws a lognormal scalar with the given median and sigma.
func (r *rng) lognormal(median, sigma float64) float64 {
	return median * math.Exp(sigma*r.NormFloat64())
}

// fork re-seeds into as an independent deterministic stream, so
// consumers can draw in any order without perturbing each other.
func (r *rng) fork(into *rng) *rng {
	into.Seed(r.Int63())
	return into
}
