package isis

import "testing"

// Allocation pins companion to the benchmarks: ReportAllocs shows a
// regression only to someone reading benchmark output, while these
// fail `go test` outright. The in-place decode copies every retained
// byte into one reused arena and takes neighbor/prefix slots from
// reused backing arrays, so a warm LSP decodes with zero allocations;
// a cold LSP pays only the handful of one-time buffer allocations.

// TestLSPDecodeAllocBudget pins the cold path: decoding into a fresh
// LSP allocates the arena, the neighbor and prefix backing arrays, and
// the area list — one-time buffers, not per-record garbage — and, as a
// fresh LSP is a fresh decoder, starts its hostname table: the map
// (two allocations), the name's one copy, and the LSP itself, which
// the table's owner pointer moves to the heap.
func TestLSPDecodeAllocBudget(t *testing.T) {
	wire, err := benchLSP().AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		var l LSP
		if err := l.DecodeFromBytes(wire); err != nil {
			t.Fatal(err)
		}
	})
	budget := 8.0
	if raceEnabled {
		budget = 10.0 // race instrumentation adds allocations of its own
	}
	if avg > budget {
		t.Errorf("cold DecodeFromBytes allocates %.1f times per LSP, budget is %.0f", avg, budget)
	}
}

// TestLSPDecodeReuseAllocBudget pins the steady state: decoding into a
// warm reused LSP — the arena sized, the slot arrays grown, the
// hostname interned — must allocate nothing at all.
func TestLSPDecodeReuseAllocBudget(t *testing.T) {
	wire, err := benchLSP().AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	var l LSP
	for i := 0; i < 4; i++ {
		if err := l.DecodeFromBytes(wire); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := l.DecodeFromBytes(wire); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("warm DecodeFromBytes allocates %.1f times per LSP, budget is 0", avg)
	}
}
