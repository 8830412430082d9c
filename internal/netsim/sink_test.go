package netsim

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"netfail/internal/capture"
	"netfail/internal/syslog"
)

// TestSpillSinkAllocBudget: at steady state — reorder heap at its
// horizon's size, render buffer at line length — a spilled syslog
// message (push, pop, render, frame) and a spilled LSP allocate nothing.
func TestSpillSinkAllocBudget(t *testing.T) {
	w, err := capture.NewWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw, err := w.Shard(BackboneDomain, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp := &spillSink{sw: sw}
	// Stamped horizon ahead of the clock, that many messages wait in the
	// heap and each step pops one; the ring outlives a message's wait.
	const horizon = 64 * time.Millisecond
	ring := make([]*syslog.Message, 128)
	for i := range ring {
		ring[i] = syslog.LinkUpDown("riv-core-01", uint64(i), time.Time{}, "POS1/0", false)
	}
	wire := bytes.Repeat([]byte{0x42}, 120)
	now, n := time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC), 0
	step := func() {
		m := ring[n%len(ring)]
		m.Timestamp = now.Add(horizon)
		sp.syslog(now, m)
		sp.lsp(now, wire)
		now, n = now.Add(time.Millisecond), n+1
	}
	for i := 0; i < 256; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Errorf("steady-state spill allocates %.0f times per syslog+LSP pair, budget is 0", avg)
	}
	if err := errors.Join(sp.finish(), sw.Close()); err != nil {
		t.Fatal(err)
	}
}
