package lfg

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// matchesMathRand reports the first draw at which a Source seeded with
// seed leaves rand.NewSource(seed)'s stream, or -1. The Source is
// re-seeded over a stream that has already run, so a word it forgets
// to rebuild shows.
func matchesMathRand(s *Source, seed int64, draws int) int {
	ref := rand.NewSource(seed).(rand.Source64)
	s.Seed(seed)
	for d := 0; d < draws; d++ {
		want := ref.Uint64()
		var got uint64
		if d%2 == 0 {
			got = s.Uint64()
		} else {
			got = uint64(s.Int63())
			want &^= 1 << 63
		}
		if got != want {
			return d
		}
	}
	return -1
}

// TestSourceMatchesMathRand runs each seed well past the 607 cold
// draws and several tap and feed wraps.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 2, 89482311, -89482311,
		m31, -m31, 2 * m31, -2 * m31, m31 - 1, m31 + 1, 1 - m31,
		math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32,
	}
	gen := rand.New(rand.NewSource(7))
	for len(seeds) < 320 {
		seeds = append(seeds, gen.Int63()-gen.Int63())
	}
	var s Source
	s.Seed(12345)
	for i := 0; i < 5000; i++ {
		s.Uint64()
	}
	for _, seed := range seeds {
		if d := matchesMathRand(&s, seed, 3000); d >= 0 {
			t.Fatalf("seed %d: draw %d differs from rand.NewSource's", seed, d)
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(700))
	f.Add(int64(math.MinInt64), uint16(1300))
	f.Add(int64(m31), uint16(607))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		var s Source
		if d := matchesMathRand(&s, seed, int(draws)); d >= 0 {
			t.Fatalf("seed %d: draw %d differs from rand.NewSource's", seed, d)
		}
	})
}

var sink int64

// BenchmarkSource times a seed and k draws, against math/rand's
// source: k=1 and 16 are short-lived forks, 607 ends the cold draws,
// and 100000 is dominated by the warm per-draw cost.
func BenchmarkSource(b *testing.B) {
	for _, k := range []int{1, 16, 607, 100000} {
		b.Run("lfg/k="+strconv.Itoa(k), func(b *testing.B) {
			var s Source
			for i := 0; i < b.N; i++ {
				s.Seed(int64(i))
				for j := 0; j < k; j++ {
					sink += s.Int63()
				}
			}
		})
		b.Run("math-rand/k="+strconv.Itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := rand.NewSource(int64(i))
				for j := 0; j < k; j++ {
					sink += s.Int63()
				}
			}
		})
	}
}
