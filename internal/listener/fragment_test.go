package listener

import (
	"testing"
	"time"

	"netfail/internal/isis"
	"netfail/internal/trace"
)

// TestFragmentedLSPsUnioned verifies ISO 10589 §7.3.7 semantics: a
// router's advertisement set is the union over its fragments, so
// moving content between fragments or updating one fragment must not
// fabricate transitions, while a genuine withdrawal in any fragment
// must surface.
func TestFragmentedLSPsUnioned(t *testing.T) {
	tb := newTestbed(t, false)

	// core-a's content over three fragments: the core-b adjacency in
	// fragment 0, the cpe-1 adjacency in 1, every prefix in 2.
	wire, err := tb.devices["core-a"].EncodeLSP()
	var full isis.LSP
	if err == nil {
		err = full.DecodeFromBytes(wire)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Neighbors) != 2 {
		t.Fatalf("core-a advertises %d neighbors, want 2", len(full.Neighbors))
	}
	fragments := func(seq uint32, toCoreB []isis.ISNeighbor) []*isis.LSP {
		frags := []*isis.LSP{
			isis.NewLSP(full.ID.System, seq, full.Hostname, toCoreB, nil),
			isis.NewLSP(full.ID.System, seq, full.Hostname, full.Neighbors[1:], nil),
			isis.NewLSP(full.ID.System, seq, full.Hostname, nil, full.Prefixes),
		}
		for i, f := range frags {
			f.ID.Fragment = uint8(i)
		}
		return frags
	}
	deliver := func(f *isis.LSP, after time.Duration) {
		t.Helper()
		wire, err := f.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		tb.now = tb.now.Add(after)
		if err := tb.l.Process(tb.now, wire); err != nil {
			t.Fatal(err)
		}
	}

	// Deliver everything as the baseline.
	frags := fragments(full.Sequence, full.Neighbors[:1])
	for _, f := range frags {
		deliver(f, 100*time.Millisecond)
	}
	tb.flood(t, "core-b")
	tb.flood(t, "cpe-1")
	if got := len(tb.l.Results().ISTransitions); got != 0 {
		t.Fatalf("baseline produced %d transitions", got)
	}

	// Refresh one fragment with identical content: nothing happens.
	refresh := *frags[0]
	refresh.Sequence++
	deliver(&refresh, time.Second)
	if got := len(tb.l.Results().ISTransitions); got != 0 {
		t.Fatalf("no-op fragment refresh produced %d transitions", got)
	}

	// Withdraw the core-b adjacency from the fragment that carries it
	// and re-issue the others unchanged: a Down must surface on exactly
	// that link.
	linkAB := tb.net.Links[0].ID
	for _, f := range fragments(refresh.Sequence+1, nil) {
		deliver(f, 2*time.Second)
	}
	res := tb.l.Results()
	downs := 0
	for _, tr0 := range res.ISTransitions {
		if tr0.Dir == trace.Down {
			downs++
			if tr0.Link != linkAB {
				t.Errorf("down on wrong link: %+v", tr0)
			}
		} else {
			t.Errorf("unexpected up: %+v", tr0)
		}
	}
	if downs != 1 {
		t.Errorf("downs = %d, want 1 (got %+v)", downs, res.ISTransitions)
	}
}
