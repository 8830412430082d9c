package stats

import (
	"math"
	"math/rand"
	"testing"

	"netfail/internal/lfg"
)

func TestBootstrapMedianCICoversTrueMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	covered := 0
	const trials = 40
	for i := 0; i < trials; i++ {
		// Exponential with true median ln(2)*100 ≈ 69.3.
		sample := make([]float64, 400)
		for j := range sample {
			sample[j] = rng.ExpFloat64() * 100
		}
		lo, hi, err := BootstrapMedianCI(sample, 500, 0.05, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if lo > hi {
			t.Fatalf("lo %v > hi %v", lo, hi)
		}
		if lo <= 69.3 && 69.3 <= hi {
			covered++
		}
	}
	// A 95% interval should cover the truth nearly always over 40
	// trials; demand at least 34.
	if covered < 34 {
		t.Errorf("coverage = %d/%d", covered, trials)
	}
}

func TestBootstrapMedianCIDeterministic(t *testing.T) {
	sample := []float64{5, 1, 9, 3, 7, 2, 8}
	lo1, hi1, err := BootstrapMedianCI(sample, 300, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	lo2, hi2, err := BootstrapMedianCI(sample, 300, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	if lo1 != lo2 || hi1 != hi2 {
		t.Error("nondeterministic")
	}
}

func TestBootstrapMedianCIBracketsSampleMedian(t *testing.T) {
	sample := []float64{10, 20, 30, 40, 50, 60, 70}
	lo, hi, err := BootstrapMedianCI(sample, 1000, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo > 40 || hi < 40 {
		t.Errorf("CI [%v, %v] excludes the sample median 40", lo, hi)
	}
	if lo < 10 || hi > 70 {
		t.Errorf("CI [%v, %v] outside sample range", lo, hi)
	}
}

func TestBootstrapMedianCINarrowsWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	width := func(n int) float64 {
		sample := make([]float64, n)
		for i := range sample {
			sample[i] = rng.NormFloat64()
		}
		lo, hi, err := BootstrapMedianCI(sample, 500, 0.05, 1)
		if err != nil {
			t.Fatal(err)
		}
		return hi - lo
	}
	if w1, w2 := width(50), width(5000); w2 >= w1 {
		t.Errorf("CI did not narrow: n=50 width %v, n=5000 width %v", w1, w2)
	}
}

func TestBootstrapMedianCIErrors(t *testing.T) {
	if _, _, err := BootstrapMedianCI(nil, 100, 0.05, 1); err != ErrNoData {
		t.Errorf("err = %v", err)
	}
	// Degenerate parameters fall back to defaults.
	lo, hi, err := BootstrapMedianCI([]float64{1, 2, 3}, 0, 2, 1)
	if err != nil || lo > hi {
		t.Errorf("defaults broken: %v %v %v", lo, hi, err)
	}
}

// TestBootstrapMedianCINaNAlpha: a NaN alpha takes the documented 0.05
// default rather than indexing the medians with a NaN position.
func TestBootstrapMedianCINaNAlpha(t *testing.T) {
	sample := []float64{5, 1, 9, 3, 7, 2, 8}
	lo, hi, err := BootstrapMedianCI(sample, 300, math.NaN(), 7)
	wantLo, wantHi, _ := BootstrapMedianCI(sample, 300, 0.05, 7)
	if err != nil || lo != wantLo || hi != wantHi {
		t.Errorf("alpha NaN: [%v, %v] %v, want the alpha 0.05 interval [%v, %v]", lo, hi, err, wantLo, wantHi)
	}
}

// bootstrapSample draws the shapes the rank-counting bootstrap has to
// get right: one and two values, odd and even sizes, samples that are
// mostly ties, NaNs, and infinities of either sign (the median
// interpolated between two of them is a NaN, which must sort where
// the reference sorts it).
func bootstrapSample(rng *rand.Rand) []float64 {
	n := []int{1, 2, 3, 4, 5, 8, 17, 64, 101, 256}[rng.Intn(10)]
	if rng.Intn(4) == 0 {
		n = 1 + rng.Intn(40)
	}
	sample := make([]float64, n)
	shape := rng.Intn(5)
	for i := range sample {
		switch shape {
		case 0:
			sample[i] = rng.ExpFloat64() * 100
		case 1:
			sample[i] = float64(rng.Intn(3))
		case 2:
			sample[i] = float64(rng.Intn(1+n/2)) * 0.1
		case 3:
			sample[i] = math.Inf(1 - 2*rng.Intn(2))
		default:
			sample[i] = rng.NormFloat64()
			switch rng.Intn(8) {
			case 0:
				sample[i] = math.Inf(1)
			case 1:
				sample[i] = math.Inf(-1)
			case 2:
				sample[i] = math.NaN()
			}
		}
	}
	return sample
}

// TestBootstrapMatchesReference: bit-identical bounds to sorting every
// resample, over seeded samples and several (rounds, alpha, seed).
func TestBootstrapMatchesReference(t *testing.T) {
	cases := 1200
	if testing.Short() {
		cases = 150
	}
	params := []struct {
		rounds int
		alpha  float64
		seed   int64
	}{{400, 0.05, 1}, {37, 0.2, 99}, {0, 0, -5}, {1, 0.5, 7}}
	even, nans := 0, 0
	for c := 0; c < cases; c++ {
		sample := bootstrapSample(rand.New(rand.NewSource(int64(c))))
		before := append([]float64(nil), sample...)
		p := params[c%len(params)]
		lo, hi, err := BootstrapMedianCI(sample, p.rounds, p.alpha, p.seed+int64(c))
		wantLo, wantHi, wantErr := refBootstrapMedianCI(sample, p.rounds, p.alpha, p.seed+int64(c))
		if err != wantErr || math.Float64bits(lo) != math.Float64bits(wantLo) || math.Float64bits(hi) != math.Float64bits(wantHi) {
			t.Fatalf("case %d (n=%d, %+v): [%v, %v] %v, reference [%v, %v] %v\nsample %v", c, len(sample), p, lo, hi, err, wantLo, wantHi, wantErr, sample)
		}
		for i := range sample {
			if math.Float64bits(sample[i]) != math.Float64bits(before[i]) {
				t.Fatalf("case %d: sample[%d] changed", c, i)
			}
		}
		if len(sample)%2 == 0 {
			even++
		}
		if math.IsNaN(lo) || math.IsNaN(hi) {
			nans++
		}
	}
	if even == 0 || nans == 0 {
		t.Errorf("generator too tame: %d even-sized samples, %d NaN bounds", even, nans)
	}
}

// TestBootstrapRoundAllocBudget: a resampling round allocates nothing.
func TestBootstrapRoundAllocBudget(t *testing.T) {
	res := newMedianResampler(benchSamples(1000, 5))
	var src lfg.Source
	src.Seed(1)
	if allocs := testing.AllocsPerRun(20, func() { res.round(&src) }); allocs != 0 {
		t.Errorf("a bootstrap round allocates %.1f times, want 0", allocs)
	}
}
