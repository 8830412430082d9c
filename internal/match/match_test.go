package match

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"netfail/internal/topo"
	"netfail/internal/trace"
)

const linkA = topo.LinkID("a:p1|b:p1")
const linkB = topo.LinkID("a:p2|c:p1")

func at(sec int) time.Time { return time.Unix(int64(sec), 0).UTC() }

func tr(link topo.LinkID, sec int, dir trace.Direction, reporter string) trace.Transition {
	return trace.Transition{Time: at(sec), Link: link, Dir: dir, Reporter: reporter}
}

func fail(link topo.LinkID, start, end int) trace.Failure {
	return trace.Failure{Link: link, Start: at(start), End: at(end)}
}

// within is the stretch of the index bounds finds.
func within(idx *TransitionIndex, link topo.LinkID, dir trace.Direction, t time.Time, w time.Duration) []trace.Transition {
	list, lo, hi := idx.bounds(link, dir, t, w)
	return list[lo:hi]
}

func TestTransitionIndexWithin(t *testing.T) {
	idx := NewTransitionIndex([]trace.Transition{
		tr(linkA, 100, trace.Down, "a"),
		tr(linkA, 105, trace.Down, "b"),
		tr(linkA, 130, trace.Down, "a"),
		tr(linkA, 102, trace.Up, "a"),
		tr(linkB, 100, trace.Down, "c"),
	})
	got := within(idx, linkA, trace.Down, at(103), DefaultWindow)
	if len(got) != 2 {
		t.Fatalf("matches = %d, want 2", len(got))
	}
	// Direction and link must discriminate.
	if len(within(idx, linkA, trace.Up, at(130), DefaultWindow)) != 0 {
		t.Error("direction not respected")
	}
	if len(within(idx, linkB, trace.Down, at(130), DefaultWindow)) != 0 {
		t.Error("link not respected")
	}
	// Window boundary is inclusive.
	if len(within(idx, linkA, trace.Down, at(115), DefaultWindow)) != 1 {
		t.Error("inclusive boundary broken")
	}
}

// TestIndexLookupAllocBudget: the matching loops make one lookup per
// transition, so bounds, AnyWithin and ReporterCount allocate nothing.
func TestIndexLookupAllocBudget(t *testing.T) {
	idx := NewTransitionIndex([]trace.Transition{
		tr(linkA, 100, trace.Down, "a"), tr(linkA, 105, trace.Down, "b"), tr(linkA, 130, trace.Down, "a"),
	})
	pin := func(name string, budget float64, found func() bool) {
		ok := true
		if avg := testing.AllocsPerRun(100, func() { ok = ok && found() }); avg != budget || !ok {
			t.Errorf("%s allocates %.0f times per lookup, budget is %.0f (found its two transitions: %v)", name, avg, budget, ok)
		}
	}
	pin("bounds", 0, func() bool { _, lo, hi := idx.bounds(linkA, trace.Down, at(103), DefaultWindow); return hi-lo == 2 })
	pin("AnyWithin", 0, func() bool { return idx.AnyWithin(linkA, trace.Down, at(103), DefaultWindow) })
	pin("ReporterCount", 0, func() bool { return idx.ReporterCount(linkA, trace.Down, at(103), DefaultWindow) == 2 })
}

func TestReporters(t *testing.T) {
	idx := NewTransitionIndex([]trace.Transition{
		tr(linkA, 100, trace.Down, "router-a"),
		tr(linkA, 104, trace.Down, "router-b"),
		tr(linkA, 106, trace.Down, "router-a"),
	})
	if n := idx.ReporterCount(linkA, trace.Down, at(102), DefaultWindow); n != 2 {
		t.Errorf("reporters = %d, want router-a and router-b", n)
	}
}

func TestMatchedFraction(t *testing.T) {
	src := []trace.Transition{
		tr(linkA, 100, trace.Down, "x"),
		tr(linkA, 200, trace.Down, "x"),
		tr(linkA, 300, trace.Down, "x"),
		tr(linkA, 400, trace.Down, "x"),
	}
	ref := []trace.Transition{
		tr(linkA, 103, trace.Down, "y"),
		tr(linkA, 215, trace.Down, "y"), // 15 s off: no match
		tr(linkA, 300, trace.Up, "y"),   // wrong direction
	}
	idx := NewTransitionIndex(ref)
	if got := idx.MatchedFraction(src, DefaultWindow); got != 0.25 {
		t.Errorf("fraction = %v, want 0.25", got)
	}
	if idx.MatchedFraction(nil, DefaultWindow) != 0 {
		t.Error("empty src should give 0")
	}
}

func TestFailuresExactMatch(t *testing.T) {
	a := []trace.Failure{fail(linkA, 100, 200), fail(linkA, 500, 600)}
	b := []trace.Failure{fail(linkA, 103, 195), fail(linkA, 900, 950)}
	m := Failures(a, b, DefaultWindow)
	if len(m.Pairs) != 1 || m.Pairs[0] != (FailurePair{A: 0, B: 0}) {
		t.Errorf("pairs = %+v", m.Pairs)
	}
	if len(m.OnlyA) != 1 || m.OnlyA[0] != 1 {
		t.Errorf("onlyA = %v", m.OnlyA)
	}
	if len(m.OnlyB) != 1 || m.OnlyB[0] != 1 {
		t.Errorf("onlyB = %v", m.OnlyB)
	}
}

func TestFailuresEndMustMatchToo(t *testing.T) {
	a := []trace.Failure{fail(linkA, 100, 200)}
	b := []trace.Failure{fail(linkA, 100, 290)} // start matches, end off by 90 s
	m := Failures(a, b, DefaultWindow)
	if len(m.Pairs) != 0 {
		t.Errorf("pairs = %+v, want none", m.Pairs)
	}
}

func TestFailuresOneToOne(t *testing.T) {
	// Two a-failures near one b-failure: only one may claim it.
	a := []trace.Failure{fail(linkA, 100, 200), fail(linkA, 105, 205)}
	b := []trace.Failure{fail(linkA, 102, 202)}
	m := Failures(a, b, DefaultWindow)
	if len(m.Pairs) != 1 {
		t.Fatalf("pairs = %+v", m.Pairs)
	}
	if len(m.OnlyA) != 1 {
		t.Errorf("onlyA = %v", m.OnlyA)
	}
}

func TestFailuresPicksNearest(t *testing.T) {
	a := []trace.Failure{fail(linkA, 100, 200)}
	b := []trace.Failure{fail(linkA, 92, 200), fail(linkA, 101, 201)}
	m := Failures(a, b, DefaultWindow)
	if len(m.Pairs) != 1 || m.Pairs[0].B != 1 {
		t.Errorf("pairs = %+v, want B=1 (nearest)", m.Pairs)
	}
}

func TestIntersectionDowntime(t *testing.T) {
	a := []trace.Failure{fail(linkA, 100, 200), fail(linkB, 0, 50)}
	b := []trace.Failure{fail(linkA, 150, 250), fail(linkB, 100, 150)}
	// linkA overlap [150,200] = 50 s; linkB overlap none.
	if got := IntersectionDowntime(a, GroupByLink(b)); got != 50*time.Second {
		t.Errorf("intersection = %v, want 50s", got)
	}
}

func TestIntersectionDowntimeMultipleOverlaps(t *testing.T) {
	a := []trace.Failure{fail(linkA, 0, 1000)}
	b := []trace.Failure{fail(linkA, 100, 200), fail(linkA, 300, 400)}
	if got := IntersectionDowntime(a, GroupByLink(b)); got != 200*time.Second {
		t.Errorf("intersection = %v, want 200s", got)
	}
}

// refIntersectionDowntime is the nested loop IntersectionDowntime's
// merge replaced: every failure of a against its link's failures of b
// from the first.
func refIntersectionDowntime(a []trace.Failure, byLinkB map[topo.LinkID][]trace.Failure) time.Duration {
	var total time.Duration
	for _, fa := range a {
		for _, fb := range byLinkB[fa.Link] {
			if fb.Start.After(fa.End) {
				break
			}
			lo := maxTime(fa.Start, fb.Start)
			hi := minTime(fa.End, fb.End)
			if hi.After(lo) {
				total += hi.Sub(lo)
			}
		}
	}
	return total
}

// genFailures draws n failures on link in start order: gaps of zero
// (equal starts), failures that end where the next starts (touching),
// and long ones that nest several successors.
func genFailures(rng *rand.Rand, link topo.LinkID, n int) []trace.Failure {
	fs := make([]trace.Failure, 0, n)
	start := rng.Intn(50)
	for len(fs) < n {
		dur := rng.Intn(40)
		switch rng.Intn(4) {
		case 0:
			dur = 100 + rng.Intn(400) // nests what follows
		case 1:
			dur = 0
		}
		fs = append(fs, fail(link, start, start+dur))
		switch rng.Intn(3) {
		case 0: // equal start
		case 1:
			start += dur // touching
		default:
			start += rng.Intn(60)
		}
	}
	return fs
}

// TestIntersectionDowntimeMatchesNestedLoop holds the merge to the
// nested loop on generated lists: nested, touching and equal-start
// failures on a few links, one of them with 1,000 failures in each
// source, and the first source in no particular order across links.
func TestIntersectionDowntimeMatchesNestedLoop(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var a, b []trace.Failure
		for i, n := range []int{1000, 1 + rng.Intn(30), rng.Intn(30), 1 + rng.Intn(5)} {
			link := topo.LinkID(fmt.Sprintf("r%d:p|s%d:p", i, i))
			a = append(a, genFailures(rng, link, n)...)
			b = append(b, genFailures(rng, link, rng.Intn(2*n+1))...)
		}
		rng.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		byLinkB := GroupByLink(b)
		if got, want := IntersectionDowntime(a, byLinkB), refIntersectionDowntime(a, byLinkB); got != want {
			t.Fatalf("seed %d: merge %v, nested loop %v", seed, got, want)
		}
	}
}

func TestIntersects(t *testing.T) {
	byLink := GroupByLink([]trace.Failure{fail(linkA, 100, 200)})
	if !Intersects(fail(linkA, 150, 300), byLink) {
		t.Error("overlapping failure not detected")
	}
	if Intersects(fail(linkA, 300, 400), byLink) {
		t.Error("disjoint failure detected")
	}
	if Intersects(fail(linkB, 150, 300), byLink) {
		t.Error("wrong link detected")
	}
}

func TestWindowSweepMonotone(t *testing.T) {
	// Failures offset by varying amounts: larger windows match more.
	var a, b []trace.Failure
	for i := 0; i < 30; i++ {
		start := i * 1000
		a = append(a, fail(linkA, start, start+100))
		b = append(b, fail(linkA, start+i, start+100+i)) // offset grows with i
	}
	windows := []time.Duration{time.Second, 5 * time.Second, 15 * time.Second, 40 * time.Second}
	pts := WindowSweep(a, b, windows)
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].MatchedFailureFraction < pts[i-1].MatchedFailureFraction {
			t.Errorf("fraction not monotone: %+v", pts)
		}
	}
	if pts[3].MatchedFailureFraction <= pts[0].MatchedFailureFraction {
		t.Error("sweep shows no growth")
	}
}
