package match

// Equivalence tests for the incremental window sweep: every point the
// precomputed-candidate evaluation reports must be exactly what a
// naive per-window Failures run would report, and the allocation-free
// index queries (AnyWithin, ReporterCount) must agree with their
// materializing counterparts on the same data.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"netfail/internal/topo"
	"netfail/internal/trace"
)

// sweepCorpus generates a deterministic failure corpus: list b is
// list a re-observed with per-failure jitter, dropped records, and
// spurious extras, over a handful of links — the shape the syslog/
// IS-IS comparison actually feeds WindowSweep. Equal start times and
// overlapping candidates occur by construction (integer-second
// jitter), which is exactly where a sloppy rewrite would diverge.
func sweepCorpus(seed int64, n int) (a, b []trace.Failure) {
	rng := rand.New(rand.NewSource(seed))
	base := time.Unix(1300000000, 0).UTC()
	links := make([]topo.LinkID, 8)
	for i := range links {
		links[i] = topo.LinkID(fmt.Sprintf("r%d:p1|r%d:p2", i, i+1))
	}
	cursor := base
	for i := 0; i < n; i++ {
		link := links[rng.Intn(len(links))]
		cursor = cursor.Add(time.Duration(rng.Intn(90)) * time.Second)
		dur := time.Duration(1+rng.Intn(300)) * time.Second
		fa := trace.Failure{Link: link, Start: cursor, End: cursor.Add(dur)}
		a = append(a, fa)
		switch rng.Intn(10) {
		case 0:
			// Dropped in b.
		case 1:
			// Spurious extra in b on top of the jittered copy.
			b = append(b, jitterFailure(rng, fa), trace.Failure{
				Link:  link,
				Start: cursor.Add(time.Duration(rng.Intn(600)) * time.Second),
				End:   cursor.Add(time.Duration(600+rng.Intn(600)) * time.Second),
			})
		default:
			b = append(b, jitterFailure(rng, fa))
		}
	}
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return a, b
}

func jitterFailure(rng *rand.Rand, f trace.Failure) trace.Failure {
	j := func() time.Duration { return time.Duration(rng.Intn(61)-30) * time.Second }
	g := trace.Failure{Link: f.Link, Start: f.Start.Add(j()), End: f.End.Add(j())}
	if !g.End.After(g.Start) {
		g.End = g.Start.Add(time.Second)
	}
	return g
}

// naiveWindowPoint is the pre-optimization reference: run the full
// greedy Failures match at this window and derive the fractions.
func naiveWindowPoint(a, b []trace.Failure, w time.Duration) WindowPoint {
	m := Failures(a, b, w)
	var matchedDown time.Duration
	for _, p := range m.Pairs {
		matchedDown += a[p.A].Duration()
	}
	pt := WindowPoint{Window: w}
	if total := trace.TotalDowntime(a); total > 0 {
		pt.MatchedDowntimeFraction = float64(matchedDown) / float64(total)
	}
	if len(a) > 0 {
		pt.MatchedFailureFraction = float64(len(m.Pairs)) / float64(len(a))
	}
	return pt
}

func TestWindowSweepMatchesNaiveReference(t *testing.T) {
	// 20 windows spanning sub-jitter to way-past-jitter, deliberately
	// unsorted to prove the sweep does not require ordered input.
	windows := []time.Duration{
		10 * time.Second, 1 * time.Second, 2 * time.Second, 5 * time.Second,
		15 * time.Second, 3 * time.Second, 20 * time.Second, 30 * time.Second,
		45 * time.Second, 60 * time.Second, 75 * time.Second, 90 * time.Second,
		120 * time.Second, 4 * time.Second, 8 * time.Second, 25 * time.Second,
		40 * time.Second, 100 * time.Second, 150 * time.Second, 7 * time.Second,
	}
	for _, seed := range []int64{1, 7, 42} {
		a, b := sweepCorpus(seed, 400)
		got := WindowSweep(a, b, windows)
		if len(got) != len(windows) {
			t.Fatalf("seed %d: %d points, want %d", seed, len(got), len(windows))
		}
		for i, w := range windows {
			want := naiveWindowPoint(a, b, w)
			if got[i] != want {
				t.Errorf("seed %d window %v: sweep %+v, naive %+v", seed, w, got[i], want)
			}
		}
	}
}

func TestWindowSweepEmpty(t *testing.T) {
	a, b := sweepCorpus(1, 50)
	if pts := WindowSweep(a, b, nil); pts != nil {
		t.Errorf("nil windows should yield nil, got %v", pts)
	}
	pts := WindowSweep(nil, b, []time.Duration{time.Second})
	if len(pts) != 1 || pts[0].MatchedFailureFraction != 0 || pts[0].MatchedDowntimeFraction != 0 {
		t.Errorf("empty a: %+v", pts)
	}
	pts = WindowSweep(a, nil, []time.Duration{time.Second})
	if len(pts) != 1 || pts[0].MatchedFailureFraction != 0 {
		t.Errorf("empty b: %+v", pts)
	}
}

// TestWindowSweepReusable pins the epoch-stamped scratch: evaluating
// the same window twice through one sweep must be idempotent.
func TestWindowSweepReusable(t *testing.T) {
	a, b := sweepCorpus(3, 200)
	w := 30 * time.Second
	pts := WindowSweep(a, b, []time.Duration{w, w, w})
	if pts[0] != pts[1] || pts[1] != pts[2] {
		t.Errorf("repeated window not idempotent: %+v", pts)
	}
}

// Randomized agreement between the allocation-free queries and a scan
// of every transition.
func TestIndexQueryAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := time.Unix(1300000000, 0).UTC()
	links := []topo.LinkID{linkA, linkB}
	reporters := []string{"r-a", "r-b", "r-c"}
	var ts []trace.Transition
	for i := 0; i < 500; i++ {
		ts = append(ts, trace.Transition{
			Time:     base.Add(time.Duration(rng.Intn(3600)) * time.Second),
			Link:     links[rng.Intn(len(links))],
			Dir:      trace.Direction(rng.Intn(2)),
			Reporter: reporters[rng.Intn(len(reporters))],
		})
	}
	idx := NewTransitionIndex(ts)
	for i := 0; i < 1000; i++ {
		link := links[rng.Intn(len(links))]
		dir := trace.Direction(rng.Intn(2))
		at := base.Add(time.Duration(rng.Intn(3700)-50) * time.Second)
		w := time.Duration(rng.Intn(120)) * time.Second
		matches, reporters := 0, map[string]bool{}
		for _, x := range ts {
			if d := x.Time.Sub(at); x.Link == link && x.Dir == dir && -w <= d && d <= w {
				matches++
				reporters[x.Reporter] = true
			}
		}
		if got, want := idx.AnyWithin(link, dir, at, w), matches > 0; got != want {
			t.Fatalf("AnyWithin(%v,%v,%v,%v) = %v, scan found %d", link, dir, at, w, got, matches)
		}
		if got, want := idx.ReporterCount(link, dir, at, w), len(reporters); got != want {
			t.Fatalf("ReporterCount = %d, scan found %d reporters", got, want)
		}
	}
}
