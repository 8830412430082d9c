package trace

import (
	"testing"
	"time"

	"netfail/internal/topo"
)

const linkA = topo.LinkID("a:p1|b:p1")
const linkB = topo.LinkID("a:p2|c:p1")

func at(sec int) time.Time { return time.Unix(int64(sec), 0).UTC() }

func tr(link topo.LinkID, sec int, dir Direction) Transition {
	return Transition{Time: at(sec), Link: link, Dir: dir, Kind: KindISISAdj, Reporter: "a"}
}

func TestReconstructSimpleFailure(t *testing.T) {
	rec := Reconstruct([]Transition{
		tr(linkA, 100, Down),
		tr(linkA, 160, Up),
	})
	if len(rec.Failures) != 1 {
		t.Fatalf("failures = %d, want 1", len(rec.Failures))
	}
	f := rec.Failures[0]
	if f.Link != linkA || !f.Start.Equal(at(100)) || !f.End.Equal(at(160)) {
		t.Errorf("failure = %+v", f)
	}
	if f.Duration() != 60*time.Second {
		t.Errorf("duration = %v", f.Duration())
	}
	if len(rec.Ambiguities) != 0 || rec.OpenAtEnd != 0 {
		t.Errorf("rec = %+v", rec)
	}
}

func TestReconstructMultipleLinksAndOrder(t *testing.T) {
	// Unsorted input across two links.
	rec := Reconstruct([]Transition{
		tr(linkB, 300, Up),
		tr(linkA, 100, Down),
		tr(linkB, 200, Down),
		tr(linkA, 150, Up),
	})
	if len(rec.Failures) != 2 {
		t.Fatalf("failures = %d, want 2", len(rec.Failures))
	}
	if rec.Failures[0].Link != linkA || rec.Failures[1].Link != linkB {
		t.Errorf("failures not ordered by link: %+v", rec.Failures)
	}
}

func TestReconstructDoubleDown(t *testing.T) {
	// Down, Down, Up: ambiguity recorded; HoldPrevious keeps the
	// failure anchored at the first Down.
	rec := Reconstruct([]Transition{
		tr(linkA, 100, Down),
		tr(linkA, 130, Down),
		tr(linkA, 200, Up),
	})
	if len(rec.Failures) != 1 {
		t.Fatalf("failures = %d, want 1", len(rec.Failures))
	}
	if !rec.Failures[0].Start.Equal(at(100)) {
		t.Errorf("start = %v, want t=100 (spurious second Down must not move it)", rec.Failures[0].Start)
	}
	if len(rec.Ambiguities) != 1 {
		t.Fatalf("ambiguities = %d, want 1", len(rec.Ambiguities))
	}
	amb := rec.Ambiguities[0]
	if amb.Dir != Down || !amb.First.Equal(at(100)) || !amb.Second.Equal(at(130)) {
		t.Errorf("ambiguity = %+v", amb)
	}
}

func TestReconstructDoubleUp(t *testing.T) {
	rec := Reconstruct([]Transition{
		tr(linkA, 100, Down),
		tr(linkA, 150, Up),
		tr(linkA, 180, Up), // spurious
		tr(linkA, 300, Down),
		tr(linkA, 320, Up),
	})
	if len(rec.Failures) != 2 {
		t.Fatalf("failures = %d, want 2", len(rec.Failures))
	}
	if len(rec.Ambiguities) != 1 || rec.Ambiguities[0].Dir != Up {
		t.Errorf("ambiguities = %+v", rec.Ambiguities)
	}
}

func TestReconstructTripleDownChainsAmbiguities(t *testing.T) {
	rec := Reconstruct([]Transition{
		tr(linkA, 100, Down),
		tr(linkA, 110, Down),
		tr(linkA, 120, Down),
		tr(linkA, 200, Up),
	})
	if len(rec.Ambiguities) != 2 {
		t.Fatalf("ambiguities = %d, want 2", len(rec.Ambiguities))
	}
	// Spans must chain: [100,110], [110,120].
	if !rec.Ambiguities[0].Second.Equal(rec.Ambiguities[1].First) {
		t.Errorf("spans do not chain: %+v", rec.Ambiguities)
	}
}

func TestReconstructLeadingUpIgnored(t *testing.T) {
	rec := Reconstruct([]Transition{
		tr(linkA, 50, Up), // link was already up: no failure
		tr(linkA, 100, Down),
		tr(linkA, 150, Up),
	})
	if len(rec.Failures) != 1 || !rec.Failures[0].Start.Equal(at(100)) {
		t.Errorf("failures = %+v", rec.Failures)
	}
	if len(rec.Ambiguities) != 0 {
		t.Errorf("leading Up should not be ambiguous: %+v", rec.Ambiguities)
	}
}

func TestReconstructOpenFailureDropped(t *testing.T) {
	rec := Reconstruct([]Transition{
		tr(linkA, 100, Down),
	})
	if len(rec.Failures) != 0 || rec.OpenAtEnd != 1 {
		t.Errorf("rec = %+v", rec)
	}
}

func TestReconstructEmpty(t *testing.T) {
	rec := Reconstruct(nil)
	if len(rec.Failures) != 0 || len(rec.Ambiguities) != 0 {
		t.Errorf("rec = %+v", rec)
	}
}

// downtime is the total downtime of ts under an ambiguity policy, as
// core.PolicyAblation spells it.
func downtime(ts []Transition, p AmbiguityPolicy) time.Duration {
	return TotalDowntime(ReconstructPolicy(ts, p).Failures)
}

func TestDowntimePolicies(t *testing.T) {
	// Double Down with gap [100,160], failure ends at 200:
	//  HoldPrevious: down 100..200            = 100s
	//  AssumeDown:   same (already down)      = 100s
	//  AssumeUp:     down 100..100? no: close at first message of the
	//                ambiguous span (100) and resume at 160 → 40s.
	ts := []Transition{
		tr(linkA, 100, Down),
		tr(linkA, 160, Down),
		tr(linkA, 200, Up),
	}
	if got := downtime(ts, HoldPrevious); got != 100*time.Second {
		t.Errorf("HoldPrevious = %v, want 100s", got)
	}
	if got := downtime(ts, AssumeDown); got != 100*time.Second {
		t.Errorf("AssumeDown = %v, want 100s", got)
	}
	if got := downtime(ts, AssumeUp); got != 40*time.Second {
		t.Errorf("AssumeUp = %v, want 40s", got)
	}
}

func TestDowntimeDoubleUpPolicies(t *testing.T) {
	// Failure 100..150, spurious Up at 400:
	//  HoldPrevious/AssumeUp: 50s
	//  AssumeDown: ambiguous span [150,400] counted down → 50+250 = 300s
	ts := []Transition{
		tr(linkA, 100, Down),
		tr(linkA, 150, Up),
		tr(linkA, 400, Up),
	}
	if got := downtime(ts, HoldPrevious); got != 50*time.Second {
		t.Errorf("HoldPrevious = %v, want 50s", got)
	}
	if got := downtime(ts, AssumeUp); got != 50*time.Second {
		t.Errorf("AssumeUp = %v, want 50s", got)
	}
	if got := downtime(ts, AssumeDown); got != 300*time.Second {
		t.Errorf("AssumeDown = %v, want 300s", got)
	}
}

func TestDowntimeOpenFailureDropped(t *testing.T) {
	// A trailing Down with no Up leaves the failure's extent unknown:
	// it must not be counted (consistent with Reconstruct).
	ts := []Transition{tr(linkA, 900, Down)}
	if got := downtime(ts, HoldPrevious); got != 0 {
		t.Errorf("downtime = %v, want 0 (open failure dropped)", got)
	}
}

func TestSortTransitionsDeterministic(t *testing.T) {
	ts := []Transition{
		{Time: at(10), Link: linkB, Dir: Up, Reporter: "b"},
		{Time: at(10), Link: linkA, Dir: Up, Reporter: "b"},
		{Time: at(10), Link: linkA, Dir: Down, Reporter: "a"},
		{Time: at(5), Link: linkB, Dir: Down, Reporter: "z"},
		{Time: at(10), Link: linkA, Dir: Up, Reporter: "a"},
	}
	SortTransitions(ts)
	if !ts[0].Time.Equal(at(5)) {
		t.Error("not time-ordered")
	}
	if ts[1].Link != linkA || ts[1].Dir != Down {
		t.Errorf("tie-break wrong: %+v", ts[1])
	}
	if ts[2].Reporter != "a" || ts[3].Reporter != "b" {
		t.Errorf("reporter tie-break wrong: %+v %+v", ts[2], ts[3])
	}
}
