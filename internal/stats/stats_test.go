package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Median != 3 || s.Mean != 3 || s.N != 5 {
		t.Errorf("got %+v", s)
	}
	if !almostEqual(s.P95, 4.8, 1e-9) {
		t.Errorf("P95 = %v, want 4.8", s.P95)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrNoData {
		t.Errorf("err = %v, want ErrNoData", err)
	}
}

// at is F(x) = P[X ≤ x] read off e's plotted points: the height of
// the last point at or left of x.
func at(e *ECDF, x float64) float64 {
	xs, ys := e.Points()
	if i := sort.Search(len(xs), func(i int) bool { return xs[i] > x }); i > 0 {
		return ys[i-1]
	}
	return 0
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 4})
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.25}, {2, 0.75}, {3, 0.75}, {4, 1}, {99, 1},
	}
	for _, c := range cases {
		if got := at(e, c.x); got != c.want {
			t.Errorf("F(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 4})
	xs, ys := e.Points()
	wantX := []float64{1, 2, 4}
	wantY := []float64{0.25, 0.75, 1}
	if len(xs) != len(wantX) {
		t.Fatalf("got %d points, want %d", len(xs), len(wantX))
	}
	for i := range xs {
		if xs[i] != wantX[i] || ys[i] != wantY[i] {
			t.Errorf("point %d = (%v,%v), want (%v,%v)", i, xs[i], ys[i], wantX[i], wantY[i])
		}
	}
}

func TestECDFMatchesBruteForceQuick(t *testing.T) {
	f := func(raw []float64, x float64) bool {
		var sample []float64
		for _, v := range raw {
			if !math.IsNaN(v) {
				sample = append(sample, v)
			}
		}
		if math.IsNaN(x) {
			return true
		}
		e := NewECDF(sample)
		count := 0
		for _, v := range sample {
			if v <= x {
				count++
			}
		}
		want := 0.0
		if len(sample) > 0 {
			want = float64(count) / float64(len(sample))
		}
		return at(e, x) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKSIdenticalSamples(t *testing.T) {
	sample := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	r, err := KSTest(sample, sample)
	if err != nil {
		t.Fatal(err)
	}
	if r.D != 0 {
		t.Errorf("D = %v, want 0", r.D)
	}
	if !r.Consistent(0.05) {
		t.Error("identical samples judged inconsistent")
	}
}

func TestKSDisjointSamples(t *testing.T) {
	a := make([]float64, 100)
	b := make([]float64, 100)
	for i := range a {
		a[i] = float64(i)
		b[i] = float64(i + 1000)
	}
	r, err := KSTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.D != 1 {
		t.Errorf("D = %v, want 1", r.D)
	}
	if r.Consistent(0.05) {
		t.Error("disjoint samples judged consistent")
	}
}

func TestKSSameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, 500)
	b := make([]float64, 600)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	r, err := KSTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Consistent(0.01) {
		t.Errorf("same-distribution samples rejected: D=%v p=%v", r.D, r.PValue)
	}
}

func TestKSShiftedDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, 800)
	b := make([]float64, 800)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64() + 1.0
	}
	r, err := KSTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Consistent(0.05) {
		t.Errorf("shifted samples accepted: D=%v p=%v", r.D, r.PValue)
	}
}

func TestKSEmpty(t *testing.T) {
	if _, err := KSTest(nil, []float64{1}); err != ErrNoData {
		t.Errorf("err = %v, want ErrNoData", err)
	}
}

func TestKSStatisticMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		a := make([]float64, 5+rng.Intn(50))
		b := make([]float64, 5+rng.Intn(50))
		for i := range a {
			a[i] = math.Round(rng.Float64()*20) / 2 // ties on purpose
		}
		for i := range b {
			b[i] = math.Round(rng.Float64()*20) / 2
		}
		r, err := KSTest(a, b)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force: max over all sample points of |Fa - Fb|.
		ea, eb := NewECDF(a), NewECDF(b)
		all := append(append([]float64(nil), a...), b...)
		sort.Float64s(all)
		var want float64
		for _, x := range all {
			if d := math.Abs(at(ea, x) - at(eb, x)); d > want {
				want = d
			}
		}
		if !almostEqual(r.D, want, 1e-12) {
			t.Errorf("trial %d: D = %v, brute force %v", trial, r.D, want)
		}
	}
}

func TestKSPValueDecreasesWithD(t *testing.T) {
	// For fixed sample sizes, larger D must give smaller p.
	prev := 1.1
	for d := 0.05; d <= 0.5; d += 0.05 {
		lambda := (math.Sqrt(50) + 0.12 + 0.11/math.Sqrt(50)) * d
		p := ksQ(lambda)
		if p > prev {
			t.Errorf("p-value not monotone at D=%v: %v > %v", d, p, prev)
		}
		prev = p
	}
}
