package report

// The Figure 1 grid as it shipped before the linear merge, kept
// verbatim (ref-prefixed) as the oracle for TestMergeGridMatchesReference:
// an insertion sort of both curves' x values, and a scan from the start
// of a curve for every grid point.

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"netfail/internal/core"
)

func refMergeGrid(a, b []float64, maxPoints int) []float64 {
	all := append(append([]float64(nil), a...), b...)
	if len(all) == 0 {
		return nil
	}
	// all is built from sorted inputs; sort the merge.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && all[j] < all[j-1]; j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	var dedup []float64
	for _, v := range all {
		if len(dedup) == 0 || v != dedup[len(dedup)-1] {
			dedup = append(dedup, v)
		}
	}
	if len(dedup) <= maxPoints {
		return dedup
	}
	out := make([]float64, 0, maxPoints)
	step := float64(len(dedup)-1) / float64(maxPoints-1)
	for i := 0; i < maxPoints; i++ {
		out = append(out, dedup[int(float64(i)*step)])
	}
	return out
}

func refCdfAt(c core.CDF, x float64) float64 {
	y := 0.0
	for i, xv := range c.X {
		if xv > x {
			break
		}
		y = c.Y[i]
	}
	return y
}

// randomCurve draws an ascending curve of zero to a few hundred
// points on a half-unit grid, coarse or fine, so x values repeat
// within a curve and across the two.
func randomCurve(rng *rand.Rand) core.CDF {
	n := []int{0, 1, 2, 5, 40, 150, 320}[rng.Intn(7)]
	values := 1 + n/4
	if rng.Intn(2) == 0 {
		values = 1 + 2*n
	}
	c := core.CDF{X: make([]float64, n), Y: make([]float64, n)}
	for i := range c.X {
		c.X[i] = float64(rng.Intn(values)) * 0.5
		c.Y[i] = rng.Float64()
	}
	sort.Float64s(c.X)
	sort.Float64s(c.Y)
	return c
}

// TestMergeGridMatchesReference holds the two-pointer merge and the
// binary search to the quadratic originals: the same grid, and the
// same value of each curve at every grid point.
func TestMergeGridMatchesReference(t *testing.T) {
	big, emptySide, repeats := 0, 0, 0
	for seed := 0; seed < 3000; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		cdfs := [2]core.CDF{randomCurve(rng), randomCurve(rng)}
		maxPoints := []int{2, 7, 200}[rng.Intn(3)]
		got := mergeGrid(cdfs[0].X, cdfs[1].X, maxPoints)
		want := refMergeGrid(cdfs[0].X, cdfs[1].X, maxPoints)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: mergeGrid(%v, %v, %d) = %v, reference %v", seed, cdfs[0].X, cdfs[1].X, maxPoints, got, want)
		}
		for _, x := range got {
			for i, c := range cdfs {
				if y, want := cdfAt(c, x), refCdfAt(c, x); y != want {
					t.Fatalf("seed %d: curve %d at %v = %v, reference %v", seed, i, x, y, want)
				}
			}
		}
		if len(refMergeGrid(cdfs[0].X, cdfs[1].X, 1<<30)) > 200 {
			big++
		}
		if len(cdfs[0].X) == 0 || len(cdfs[1].X) == 0 {
			emptySide++
		}
		if len(slices.Compact(slices.Clone(cdfs[0].X))) < len(cdfs[0].X) {
			repeats++
		}
	}
	if big == 0 || emptySide == 0 || repeats == 0 {
		t.Errorf("generator too tame: %d grids over 200 points, %d with an empty side, %d with repeated x", big, emptySide, repeats)
	}
}
