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
	// heap and each step pops one.
	const horizon = 64 * time.Millisecond
	m := syslog.LinkUpDown("riv-core-01", 0, time.Time{}, "POS1/0", false)
	wire := bytes.Repeat([]byte{0x42}, 120)
	now := time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC)
	step := func() {
		m.Seq++
		m.Timestamp = now.Add(horizon)
		sp.syslog(now, m)
		sp.lsp(now, wire)
		now = now.Add(time.Millisecond)
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
