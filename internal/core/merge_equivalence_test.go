package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"netfail/internal/syslog"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// The flat-pass merge in mergeStream relies on two properties proved
// in its comment: a time-sorted input stream admits single-pass
// per-link duplicate absorption, and after absorption no two survivors
// share (Time, Link, Dir), so re-ordering equal-timestamp runs by
// (link, direction) reproduces SortTransitions exactly. These tests
// check the fast path against mergeLinkStreamReference — the original
// grouped merge, kept as the oracle — across randomized sorted
// streams, dense equal-time ties, window extremes, and arbitrary
// shard splits.

// mergeFixture builds an Extractor with n sorted links and converts a
// flat transition stream into chunked shards carrying the key/index
// mirrors parseChunk would have produced.
type mergeFixture struct {
	e     *Extractor
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
	f.e = &Extractor{links: f.links}
	return f
}

// shard splits the stream into nc contiguous chunks, mirroring the
// chunk bounds the parallel parse would have used.
func (f *mergeFixture) shard(stream []trace.Transition, nc int) []extractShard {
	bounds := chunkBounds(len(stream), nc)
	shards := make([]extractShard, len(bounds)-1)
	for i := range shards {
		for _, tr := range stream[bounds[i]:bounds[i+1]] {
			shards[i].adjT = append(shards[i].adjT, tr)
			shards[i].adjK = append(shards[i].adjK, tr.Time.UnixNano())
			shards[i].adjL = append(shards[i].adjL, f.byID[tr.Link])
		}
	}
	return shards
}

func (f *mergeFixture) merge(stream []trace.Transition, nc int, w time.Duration, sorted bool) []trace.Transition {
	var ms mergeState
	return f.e.mergeStream(&ms, f.shard(stream, nc), false, w, len(stream), sorted, nil)
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

func TestMergeFastPathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := newMergeFixture(12)
	windows := []time.Duration{0, time.Second, 10 * time.Second, 60 * time.Second, time.Hour}
	for trial := 0; trial < 40; trial++ {
		stream := randomSortedStream(rng, 50+rng.Intn(400), 12, f.links)
		w := windows[trial%len(windows)]
		want := mergeLinkStreamReference(append([]trace.Transition(nil), stream...), w)
		for _, nc := range []int{1, 2, 3, 7} {
			got := f.merge(stream, nc, w, true)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d window %v chunks %d: fast path diverges\n got %d transitions\nwant %d",
					trial, w, nc, len(got), len(want))
			}
		}
	}
}

func TestMergeFastPathEqualTimeTieOrder(t *testing.T) {
	// Every link transitions at the same instant, arriving in scrambled
	// link order: the equal-time run re-order must reproduce the
	// (time, link, direction) sort exactly.
	f := newMergeFixture(8)
	at := time.Unix(5000, 0).UTC()
	var stream []trace.Transition
	for _, li := range []int{5, 2, 7, 0, 3, 6, 1, 4} {
		for _, dir := range []trace.Direction{trace.Up, trace.Down} {
			stream = append(stream, trace.Transition{
				Time: at, Link: f.links[li], Dir: dir,
				Kind: trace.KindISISAdj, Reporter: "r0",
			})
		}
	}
	want := mergeLinkStreamReference(append([]trace.Transition(nil), stream...), 10*time.Second)
	got := f.merge(stream, 3, 10*time.Second, true)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tie order diverges:\n got %+v\nwant %+v", got, want)
	}
	if len(got) != 16 {
		t.Fatalf("merged %d transitions, want 16 (one per link and direction)", len(got))
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
	got := f.merge(stream, 1, 0, true)
	want := mergeLinkStreamReference(append([]trace.Transition(nil), stream...), 0)
	if !reflect.DeepEqual(got, want) || len(got) != 1 {
		t.Fatalf("window-0 merge = %+v, reference %+v", got, want)
	}
	if got[0].Reporter != "a" {
		t.Fatalf("survivor reporter = %q, want first arrival", got[0].Reporter)
	}
}

func TestMergeUnsortedFallsBackToReference(t *testing.T) {
	// An out-of-order capture (sorted=false) and a negative window must
	// both route to the reference path and match it on arbitrary input.
	rng := rand.New(rand.NewSource(7))
	f := newMergeFixture(6)
	stream := randomSortedStream(rng, 200, 6, f.links)
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	want := mergeLinkStreamReference(append([]trace.Transition(nil), stream...), 10*time.Second)
	if got := f.merge(stream, 4, 10*time.Second, false); !reflect.DeepEqual(got, want) {
		t.Fatalf("unsorted fallback diverges: got %d, want %d", len(got), len(want))
	}
	sortedStream := randomSortedStream(rng, 100, 6, f.links)
	wantNeg := mergeLinkStreamReference(append([]trace.Transition(nil), sortedStream...), -time.Second)
	if got := f.merge(sortedStream, 2, -time.Second, true); !reflect.DeepEqual(got, wantNeg) {
		t.Fatalf("negative-window fallback diverges: got %d, want %d", len(got), len(wantNeg))
	}
}

func TestMergeStateReuseAcrossCalls(t *testing.T) {
	// Back-to-back merges through one mergeState (the Extractor's
	// steady state) must not leak per-link state between captures.
	rng := rand.New(rand.NewSource(11))
	f := newMergeFixture(10)
	var ms mergeState
	var dst []trace.Transition
	for trial := 0; trial < 10; trial++ {
		stream := randomSortedStream(rng, 150, 10, f.links)
		want := mergeLinkStreamReference(append([]trace.Transition(nil), stream...), 10*time.Second)
		dst = f.e.mergeStream(&ms, f.shard(stream, 3), false, 10*time.Second, len(stream), true, dst)
		if !reflect.DeepEqual(dst, want) {
			t.Fatalf("trial %d: reused-state merge diverges (got %d, want %d)", trial, len(dst), len(want))
		}
	}
}

// TestExtractUnsortedCaptureMatchesReference drives the full
// ExtractInto path with an out-of-order capture: the per-chunk
// sortedness detection must route the merge to the reference path, and
// the result must be chunking-invariant.
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
	// The merge must still have collapsed the counterpart report.
	if len(seq.MergedAdj) != 3 {
		t.Fatalf("merged = %d, want 3 (counterpart at 103 absorbed)", len(seq.MergedAdj))
	}
}
