package stats

import (
	"math/rand"
	"testing"
)

func benchSamples(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.ExpFloat64() * 100
	}
	return s
}

func BenchmarkKSTest(b *testing.B) {
	b.ReportAllocs()
	a := benchSamples(10000, 1)
	c := benchSamples(10000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KSTest(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSummarize(b *testing.B) {
	b.ReportAllocs()
	s := benchSamples(10000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Summarize(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkECDF(b *testing.B) {
	b.ReportAllocs()
	s := benchSamples(10000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewECDF(s).Points()
	}
}
