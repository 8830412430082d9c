package isis

import (
	"strconv"
	"testing"

	"netfail/internal/topo"
)

// benchLSP builds a realistic backbone-router LSP: ~8 neighbors and
// ~10 prefixes.
func benchLSP() *LSP {
	var neighbors []ISNeighbor
	var prefixes []IPPrefix
	for i := 0; i < 8; i++ {
		neighbors = append(neighbors, ISNeighbor{System: topo.SystemIDFromIndex(i + 2), Metric: 10})
		prefixes = append(prefixes, IPPrefix{Metric: 10, Addr: uint32(i) << 8, Length: 31})
	}
	prefixes = append(prefixes, IPPrefix{Metric: 0, Addr: 10 << 24, Length: 32})
	return NewLSP(topo.SystemIDFromIndex(1), 7, "riv-core-01", neighbors, prefixes)
}

// BenchmarkLSPEncode measures both ways to the wire bytes: Encode into
// a fresh buffer, what a caller keeping the bytes pays, and AppendEncode
// into a reused one, the encoder alone.
func BenchmarkLSPEncode(b *testing.B) {
	l := benchLSP()
	wire, err := l.AppendEncode(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(wire)))
		for i := 0; i < b.N; i++ {
			if _, err := l.AppendEncode(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AppendEncode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(wire)))
		for i := 0; i < b.N; i++ {
			if wire, err = l.AppendEncode(wire[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLSPDecode measures the steady-state listener decode: one
// reused LSP, warm arena and intern table, so the loop body is the
// zero-allocation in-place walk.
func BenchmarkLSPDecode(b *testing.B) {
	b.ReportAllocs()
	wire, err := benchLSP().AppendEncode(nil)
	if err != nil {
		b.Fatal(err)
	}
	var l LSP
	if err := l.DecodeFromBytes(wire); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.DecodeFromBytes(wire); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1, "records/op")
}

// BenchmarkFletcherChecksum runs at the sizes the simulated network
// emits — a CPE's 120-octet LSP, a pod router's 1,492 — and at 256.
func BenchmarkFletcherChecksum(b *testing.B) {
	for _, n := range []int{120, 256, 1492} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(i * 31)
			}
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				fletcherChecksum(data, 12)
			}
		})
	}
}
