package listener

import (
	"testing"

	"netfail/internal/trace"
)

// TestLinkIDDifferentiatesParallelLinks verifies the RFC 5307
// extension: with link identifiers, the listener attributes a change
// on one of two parallel links to exactly that link — the capability
// whose absence forced the paper to discard multi-link adjacencies.
func TestLinkIDDifferentiatesParallelLinks(t *testing.T) {
	tb := newTestbed(t, true) // two parallel core-a <-> core-b links
	for _, d := range tb.devices {
		d.LinkIDCapable = true
	}
	tb.sync(t)

	link0 := tb.net.Links[0].ID // first parallel link
	link2 := tb.net.Links[2].ID // second parallel link
	if !tb.net.IsMultiLink(link0) || !tb.net.IsMultiLink(link2) {
		t.Fatal("setup: links should share a multi-link adjacency")
	}

	// Fail only the first parallel link.
	tb.devices["core-a"].Interface(link0).SetAdjacency(false)
	tb.flood(t, "core-a")

	res := tb.l.Results()
	if len(res.ISTransitions) != 1 {
		t.Fatalf("transitions = %+v, want exactly one", res.ISTransitions)
	}
	tr0 := res.ISTransitions[0]
	if tr0.Link != link0 || tr0.Dir != trace.Down {
		t.Errorf("transition = %+v, want Down on %s", tr0, link0)
	}
	if res.MultiLinkSkips != 0 {
		t.Errorf("skips = %d, want 0 with link IDs", res.MultiLinkSkips)
	}

	// Recovery on the same link.
	tb.devices["core-a"].Interface(link0).SetAdjacency(true)
	tb.flood(t, "core-a")
	res = tb.l.Results()
	if len(res.ISTransitions) != 2 || res.ISTransitions[1].Dir != trace.Up {
		t.Fatalf("transitions = %+v", res.ISTransitions)
	}

	// The second parallel link must still work independently.
	tb.devices["core-b"].Interface(link2).SetAdjacency(false)
	tb.flood(t, "core-b")
	res = tb.l.Results()
	if len(res.ISTransitions) != 3 || res.ISTransitions[2].Link != link2 {
		t.Fatalf("transitions = %+v", res.ISTransitions)
	}
}

// TestLinkIDSingleLinkStillWorks: the extension must not disturb
// ordinary single-link adjacencies.
func TestLinkIDSingleLinkStillWorks(t *testing.T) {
	tb := newTestbed(t, false)
	for _, d := range tb.devices {
		d.LinkIDCapable = true
	}
	tb.sync(t)
	link := tb.net.Links[1].ID // core-a <-> cpe-1
	tb.devices["core-a"].Interface(link).SetAdjacency(false)
	tb.flood(t, "core-a")
	res := tb.l.Results()
	if len(res.ISTransitions) != 1 || res.ISTransitions[0].Link != link {
		t.Fatalf("transitions = %+v", res.ISTransitions)
	}
}

// TestMixedCapabilityFallsBack: a link-ID-capable router paired with
// a legacy one still yields per-link transitions from the capable
// side's advertisements.
func TestMixedCapabilityFallsBack(t *testing.T) {
	tb := newTestbed(t, true)
	tb.devices["core-a"].LinkIDCapable = true // core-b stays legacy
	tb.sync(t)
	link0 := tb.net.Links[0].ID
	tb.devices["core-a"].Interface(link0).SetAdjacency(false)
	tb.flood(t, "core-a")
	res := tb.l.Results()
	if len(res.ISTransitions) != 1 || res.ISTransitions[0].Link != link0 {
		t.Fatalf("transitions = %+v", res.ISTransitions)
	}
}
