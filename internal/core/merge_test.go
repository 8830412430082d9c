package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"netfail/internal/syslog"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// The flat-pass merge in linkStream.merge is held by properties: a
// merge leaves no state behind for the next, an out-of-order stream
// merges as its stable time sort does, equal-time runs leave in (link,
// direction) order, and window 0 still absorbs an exact duplicate. The
// map-grouped merge it replaced, once kept here as an oracle, is
// retired: every bug of the mutation table (internal/lint/
// mutation_test.go) that it caught — rows P3 and M1–M4 — fails one of
// these properties or TestExtractSyslogEqualTimeOrder without it.

// mergeFixture names n sorted links and feeds flat transition streams
// through a linkStream the way Extractor.Add would.
type mergeFixture struct {
	byID  map[topo.LinkID]int32
	links []topo.LinkID
}

func newMergeFixture(nlinks int) *mergeFixture {
	f := &mergeFixture{byID: make(map[topo.LinkID]int32, nlinks)}
	for i := 0; i < nlinks; i++ {
		id := topo.LinkID(fmt.Sprintf("link-%02d", i))
		f.links = append(f.links, id)
		f.byID[id] = int32(i)
	}
	return f
}

// feed empties s and appends the stream to it in arrival order.
func (f *mergeFixture) feed(s *linkStream, stream []trace.Transition) {
	s.reset()
	for _, tr := range stream {
		s.add(tr, f.byID[tr.Link])
	}
}

// merge runs the stream through one linkStream the given number of
// times — shard after shard through one Extractor — and returns the
// last result.
func (f *mergeFixture) merge(stream []trace.Transition, repeats int, w time.Duration) []trace.Transition {
	var s linkStream
	var got []trace.Transition
	for r := 0; r < repeats; r++ {
		f.feed(&s, stream)
		got = s.merge(len(f.links), w, got)
	}
	return got
}

// randomSortedStream draws a time-sorted stream over nlinks links with
// deliberately clumped timestamps: repeats inside and outside typical
// windows, equal-time bursts across links, and mixed reporters.
func randomSortedStream(rng *rand.Rand, n, nlinks int, links []topo.LinkID) []trace.Transition {
	out := make([]trace.Transition, 0, n)
	k := int64(1000)
	for len(out) < n {
		// Advance 0 (ties), a few seconds (inside window), or minutes.
		switch rng.Intn(4) {
		case 0: // keep k: equal-time burst
		case 1:
			k += int64(rng.Intn(5))
		case 2:
			k += int64(1 + rng.Intn(90))
		default:
			k += int64(120 + rng.Intn(600))
		}
		burst := 1 + rng.Intn(3)
		for b := 0; b < burst && len(out) < n; b++ {
			dir := trace.Down
			if rng.Intn(2) == 1 {
				dir = trace.Up
			}
			out = append(out, trace.Transition{
				Time:     time.Unix(k, 0).UTC(),
				Link:     links[rng.Intn(nlinks)],
				Dir:      dir,
				Kind:     trace.KindISISAdj,
				Reporter: fmt.Sprintf("r%d", rng.Intn(4)),
			})
		}
	}
	// Bursts share a timestamp but the stream stays globally sorted.
	return out
}

// TestMergeFastPathMatchesReference: merging one stream again and again
// through one linkStream — shard after shard through one Extractor —
// gives the first, fresh merge, and that merge is in time order.
func TestMergeFastPathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := newMergeFixture(12)
	windows := []time.Duration{0, time.Second, 10 * time.Second, 60 * time.Second, time.Hour}
	for trial := 0; trial < 40; trial++ {
		stream := randomSortedStream(rng, 50+rng.Intn(400), 12, f.links)
		w := windows[trial%len(windows)]
		want := f.merge(stream, 1, w)
		if !slices.IsSortedFunc(want, byTime) {
			t.Fatalf("trial %d window %v: merge out of time order", trial, w)
		}
		for _, nc := range []int{2, 3, 7} {
			if got := f.merge(stream, nc, w); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d window %v repeats %d: %d transitions, fresh merge %d", trial, w, nc, len(got), len(want))
			}
		}
	}
}

func byTime(a, b trace.Transition) int { return a.Time.Compare(b.Time) }

func TestMergeFastPathEqualTimeTieOrder(t *testing.T) {
	// Every link transitions at the same instant, arriving in scrambled
	// link order: the merge must give (link, direction) order, Down
	// first, one transition per link and direction.
	f := newMergeFixture(8)
	at := time.Unix(5000, 0).UTC()
	var stream, want []trace.Transition
	for _, li := range []int{5, 2, 7, 0, 3, 6, 1, 4} {
		for _, dir := range []trace.Direction{trace.Up, trace.Down} {
			stream = append(stream, trace.Transition{
				Time: at, Link: f.links[li], Dir: dir,
				Kind: trace.KindISISAdj, Reporter: "r0",
			})
		}
	}
	for _, l := range f.links {
		for _, dir := range []trace.Direction{trace.Down, trace.Up} {
			want = append(want, trace.Transition{Time: at, Link: l, Dir: dir, Kind: trace.KindISISAdj, Reporter: "r0"})
		}
	}
	if got := f.merge(stream, 3, 10*time.Second); !reflect.DeepEqual(got, want) {
		t.Fatalf("tie order diverges:\n got %+v\nwant %+v", got, want)
	}
}

func TestMergeZeroWindowAbsorbsExactTies(t *testing.T) {
	// Window 0 still absorbs a same-time same-direction duplicate — the
	// property that makes Reporter irrelevant to the final order.
	f := newMergeFixture(1)
	at := time.Unix(100, 0).UTC()
	stream := []trace.Transition{
		{Time: at, Link: f.links[0], Dir: trace.Down, Kind: trace.KindISISAdj, Reporter: "a"},
		{Time: at, Link: f.links[0], Dir: trace.Down, Kind: trace.KindISISAdj, Reporter: "b"},
	}
	got := f.merge(stream, 1, 0)
	if len(got) != 1 || got[0].Reporter != "a" {
		t.Fatalf("window-0 merge = %+v, want the first arrival alone", got)
	}
}

// TestMergeUnsortedFallsBackToReference: there is no fallback any more.
// An out-of-order stream goes through the one pass and must merge as
// its stable time sort does, at every window, negative included: fully
// shuffled, or with a few late arrivals.
func TestMergeUnsortedFallsBackToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := newMergeFixture(6)
	windows := []time.Duration{-time.Second, 0, time.Second, 10 * time.Second, 60 * time.Second, time.Hour}
	for trial := 0; trial < 600; trial++ {
		stream := randomSortedStream(rng, 20+rng.Intn(300), 6, f.links)
		switch trial % 3 {
		case 1:
			rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
		case 2:
			for n := 1 + rng.Intn(5); n > 0; n-- {
				i, j := rng.Intn(len(stream)), rng.Intn(len(stream))
				stream[i], stream[j] = stream[j], stream[i]
			}
		}
		w := windows[trial%len(windows)]
		sorted := slices.Clone(stream)
		slices.SortStableFunc(sorted, byTime)
		if got, want := f.merge(stream, 1, w), f.merge(sorted, 1, w); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d window %v: %d transitions, sorted stream %d", trial, w, len(got), len(want))
		}
	}
}

func TestMergeStateReuseAcrossCalls(t *testing.T) {
	// Back-to-back merges of different captures through one linkStream
	// (the Extractor's steady state) must not leak per-link state: each
	// equals a fresh linkStream's merge.
	rng := rand.New(rand.NewSource(11))
	f := newMergeFixture(10)
	var s linkStream
	var dst []trace.Transition
	for trial := 0; trial < 10; trial++ {
		stream := randomSortedStream(rng, 150, 10, f.links)
		want := f.merge(stream, 1, 10*time.Second)
		f.feed(&s, stream)
		dst = s.merge(len(f.links), 10*time.Second, dst)
		if !reflect.DeepEqual(dst, want) {
			t.Fatalf("trial %d: reused-state merge diverges (got %d, want %d)", trial, len(dst), len(want))
		}
	}
}

// TestExtractUnsortedCaptureMatchesReference drives the full
// ExtractInto path with an out-of-order capture: Add must notice it,
// the merge must equal the sorted capture's, and the result must not
// depend on the worker count.
func TestExtractUnsortedCaptureMatchesReference(t *testing.T) {
	n, _ := tinyNet(t)
	msgs := []*syslog.Message{
		adjMsg("core-a", "Te0", "cpe-1", 300, false), // out of order
		adjMsg("core-a", "Te0", "cpe-1", 100, false),
		adjMsg("cpe-1", "Gi0", "core-a", 103, false),
		adjMsg("core-a", "Te0", "cpe-1", 400, true),
	}
	seq := extractSyslog(n, msgs, 60*time.Second, 1)
	for _, workers := range []int{2, 3, 4} {
		par := extractSyslog(n, msgs, 60*time.Second, workers)
		if !reflect.DeepEqual(par, seq) {
			t.Fatalf("workers=%d: unsorted capture diverges from sequential", workers)
		}
	}
	sorted := []*syslog.Message{msgs[1], msgs[2], msgs[0], msgs[3]}
	if want := extractSyslog(n, sorted, 60*time.Second, 1); !reflect.DeepEqual(seq.MergedAdj, want.MergedAdj) {
		t.Fatalf("unsorted capture merged to %+v, sorted capture %+v", seq.MergedAdj, want.MergedAdj)
	}
	// The merge must still have collapsed the counterpart report.
	if len(seq.MergedAdj) != 3 {
		t.Fatalf("merged = %d, want 3 (counterpart at 103 absorbed)", len(seq.MergedAdj))
	}
}
