package trace

import (
	"testing"
	"time"

	"netfail/internal/topo"
)

func fl(link topo.LinkID, start, end int) Failure {
	return Failure{Link: link, Start: at(start), End: at(end)}
}

func TestEpisodesGrouping(t *testing.T) {
	gap := 100 * time.Second
	failures := []Failure{
		fl(linkA, 0, 10),
		fl(linkA, 50, 60),   // 40s after previous end: same episode
		fl(linkA, 300, 310), // 240s gap: new episode
		fl(linkB, 0, 5),     // different link: own episode
	}
	eps := Episodes(failures, gap)
	if len(eps) != 3 {
		t.Fatalf("episodes = %d, want 3", len(eps))
	}
	if !eps[0].IsFlap() || len(eps[0].Failures) != 2 {
		t.Errorf("episode 0 = %+v", eps[0])
	}
	if eps[1].IsFlap() || eps[2].IsFlap() {
		t.Error("singleton episodes must not be flaps")
	}
}

func TestEpisodesUnsortedInput(t *testing.T) {
	failures := []Failure{
		fl(linkA, 50, 60),
		fl(linkA, 0, 10),
	}
	eps := Episodes(failures, 100*time.Second)
	if len(eps) != 1 || len(eps[0].Failures) != 2 {
		t.Fatalf("episodes = %+v", eps)
	}
	if !eps[0].Start().Equal(at(0)) || !eps[0].End().Equal(at(60)) {
		t.Errorf("episode span = %v..%v", eps[0].Start(), eps[0].End())
	}
}

func TestEpisodesEmpty(t *testing.T) {
	if eps := Episodes(nil, time.Minute); len(eps) != 0 {
		t.Errorf("episodes = %+v", eps)
	}
}

func TestFlapIndex(t *testing.T) {
	gap := 60 * time.Second
	failures := []Failure{
		fl(linkA, 1000, 1010),
		fl(linkA, 1030, 1040), // flap episode on linkA 1000..1040
		fl(linkB, 1000, 1010), // singleton on linkB
	}
	idx := NewFlapIndex(failures, gap)
	if len(idx.spans) != 1 {
		t.Errorf("flap links = %d, want 1", len(idx.spans))
	}
	// Inside the episode.
	if !idx.InFlap(linkA, at(1035)) {
		t.Error("t=1035 should be flap-time on linkA")
	}
	// Within the gap padding before/after.
	if !idx.InFlap(linkA, at(950)) || !idx.InFlap(linkA, at(1090)) {
		t.Error("gap padding not applied")
	}
	// Outside.
	if idx.InFlap(linkA, at(2000)) || idx.InFlap(linkA, at(100)) {
		t.Error("far times must not be flap-time")
	}
	// Non-flapping link.
	if idx.InFlap(linkB, at(1005)) {
		t.Error("singleton failure must not create flap-time")
	}
}

func TestFlapIndexMultipleSpans(t *testing.T) {
	gap := 10 * time.Second
	failures := []Failure{
		fl(linkA, 100, 101), fl(linkA, 105, 106), // episode 1
		fl(linkA, 500, 501), fl(linkA, 505, 506), // episode 2
	}
	idx := NewFlapIndex(failures, gap)
	if !idx.InFlap(linkA, at(100)) || !idx.InFlap(linkA, at(505)) {
		t.Error("both episodes should be indexed")
	}
	if idx.InFlap(linkA, at(300)) {
		t.Error("between episodes is not flap-time")
	}
}
