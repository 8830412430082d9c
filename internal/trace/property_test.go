package trace

import (
	"math/rand"
	"testing"
	"time"

	"netfail/internal/topo"
)

// randomTransitions builds an arbitrary (possibly nonsensical)
// transition stream over a few links.
func randomTransitions(rng *rand.Rand, n int) []Transition {
	links := []topo.LinkID{"a:1|b:1", "a:2|c:1", "b:2|c:2"}
	ts := make([]Transition, n)
	for i := range ts {
		ts[i] = Transition{
			Time: time.Unix(int64(rng.Intn(100000)), 0).UTC(),
			Link: links[rng.Intn(len(links))],
			Dir:  Direction(rng.Intn(2)),
			Kind: KindISISAdj,
		}
	}
	return ts
}

// TestReconstructInvariants checks structural invariants over random
// streams: failures are well-formed, per-link non-overlapping, and
// ordered; the ambiguity count plus transition-consumption accounting
// adds up.
func TestReconstructInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		ts := randomTransitions(rng, rng.Intn(200))
		for _, policy := range []AmbiguityPolicy{HoldPrevious, AssumeDown, AssumeUp} {
			rec := ReconstructPolicy(ts, policy)
			lastEnd := make(map[topo.LinkID]time.Time)
			var prev *Failure
			for i := range rec.Failures {
				f := rec.Failures[i]
				if !f.End.After(f.Start) && !f.End.Equal(f.Start) {
					t.Fatalf("trial %d %v: failure ends before it starts: %+v", trial, policy, f)
				}
				if f.Duration() < 0 {
					t.Fatalf("negative duration: %+v", f)
				}
				if end, ok := lastEnd[f.Link]; ok && f.Start.Before(end) {
					t.Fatalf("trial %d %v: overlapping failures on %s", trial, policy, f.Link)
				}
				lastEnd[f.Link] = f.End
				if prev != nil && prev.Link == f.Link && f.Start.Before(prev.Start) {
					t.Fatalf("failures not ordered within link")
				}
				prev = &rec.Failures[i]
			}
			// Every ambiguity span must be non-negative and on a
			// known link.
			for _, amb := range rec.Ambiguities {
				if amb.Second.Before(amb.First) {
					t.Fatalf("ambiguity reversed: %+v", amb)
				}
			}
		}
	}
}

// TestDowntimePolicyOrdering: for any stream, AssumeDown yields at
// least as much downtime as HoldPrevious... per link and in total —
// except it cannot yield less; AssumeUp cannot yield more than
// HoldPrevious.
func TestDowntimePolicyOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 300; trial++ {
		ts := randomTransitions(rng, rng.Intn(150))
		hold := downtime(ts, HoldPrevious)
		down := downtime(ts, AssumeDown)
		up := downtime(ts, AssumeUp)
		if down < hold {
			t.Fatalf("trial %d: AssumeDown (%v) < HoldPrevious (%v)", trial, down, hold)
		}
		if up > hold {
			t.Fatalf("trial %d: AssumeUp (%v) > HoldPrevious (%v)", trial, up, hold)
		}
	}
}

// TestEpisodesPartition: episodes partition the failure set — every
// failure appears in exactly one episode.
func TestEpisodesPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		ts := randomTransitions(rng, 100+rng.Intn(100))
		failures := Reconstruct(ts).Failures
		eps := Episodes(failures, 10*time.Minute)
		count := 0
		for _, e := range eps {
			count += len(e.Failures)
			for i := 1; i < len(e.Failures); i++ {
				if e.Failures[i].Link != e.Link {
					t.Fatal("episode mixes links")
				}
				gap := e.Failures[i].Start.Sub(e.Failures[i-1].End)
				if gap >= 10*time.Minute {
					t.Fatalf("episode contains a %v gap", gap)
				}
			}
		}
		if count != len(failures) {
			t.Fatalf("episodes cover %d of %d failures", count, len(failures))
		}
	}
}
