// Package match implements the paper's matching methodology (§3.4):
// two state transitions match if they occur on the same link, in the
// same direction, within a ten-second window; two failures match if
// they are on the same link with both start and end times within the
// window. It also provides interval-intersection downtime (the
// "Overlap" column of Table 4) and the window-size sweep behind the
// paper's "knee at ten seconds" observation.
package match

import (
	"slices"
	"sort"
	"time"

	"netfail/internal/topo"
	"netfail/internal/trace"
)

// DefaultWindow is the paper's matching window.
const DefaultWindow = 10 * time.Second

// TransitionIndex answers "is there a transition on this link, in
// this direction, within w of t" queries in O(log n).
type TransitionIndex struct {
	byKey map[key][]trace.Transition
}

type key struct {
	link topo.LinkID
	dir  trace.Direction
}

// NewTransitionIndex builds the index; input order is irrelevant.
// Per-key lists are sized exactly (one counting pass) and sorted
// stably so equal-time entries keep their input order.
func NewTransitionIndex(ts []trace.Transition) *TransitionIndex {
	counts := make(map[key]int)
	for _, t := range ts {
		counts[key{t.Link, t.Dir}]++
	}
	idx := &TransitionIndex{byKey: make(map[key][]trace.Transition, len(counts))}
	for _, t := range ts {
		k := key{t.Link, t.Dir}
		if idx.byKey[k] == nil {
			idx.byKey[k] = make([]trace.Transition, 0, counts[k])
		}
		idx.byKey[k] = append(idx.byKey[k], t)
	}
	for _, list := range idx.byKey {
		slices.SortStableFunc(list, func(a, b trace.Transition) int { return a.Time.Compare(b.Time) })
	}
	return idx
}

// bounds returns the half-open index range [lo, hi) of entries on
// (link, dir) with |time − t| ≤ w, via two binary searches.
func (idx *TransitionIndex) bounds(link topo.LinkID, dir trace.Direction, t time.Time, w time.Duration) (list []trace.Transition, lo, hi int) {
	list = idx.byKey[key{link, dir}]
	from := t.Add(-w)
	lo = sort.Search(len(list), func(i int) bool { return !list[i].Time.Before(from) })
	hi = lo + sort.Search(len(list)-lo, func(i int) bool { return list[lo+i].Time.Sub(t) > w })
	return list, lo, hi
}

// AnyWithin reports whether any transition on (link, dir) lies within
// w of t, without allocating: the check the MatchedFraction hot loop
// needs.
func (idx *TransitionIndex) AnyWithin(link topo.LinkID, dir trace.Direction, t time.Time, w time.Duration) bool {
	list := idx.byKey[key{link, dir}]
	from := t.Add(-w)
	i := sort.Search(len(list), func(i int) bool { return !list[i].Time.Before(from) })
	return i < len(list) && list[i].Time.Sub(t) <= w
}

// ReporterCount returns the number of distinct Reporter values among
// matches without allocating: a link has two routers, so the distinct
// scan is a tiny quadratic over an already narrow window.
func (idx *TransitionIndex) ReporterCount(link topo.LinkID, dir trace.Direction, t time.Time, w time.Duration) int {
	list, lo, hi := idx.bounds(link, dir, t, w)
	n := 0
	for i := lo; i < hi; i++ {
		dup := false
		for j := lo; j < i; j++ {
			if list[j].Reporter == list[i].Reporter {
				dup = true
				break
			}
		}
		if !dup {
			n++
		}
	}
	return n
}

// MatchedFraction returns the fraction of src transitions that have
// at least one match in the index within the window.
func (idx *TransitionIndex) MatchedFraction(src []trace.Transition, w time.Duration) float64 {
	if len(src) == 0 {
		return 0
	}
	matched := 0
	for _, t := range src {
		if idx.AnyWithin(t.Link, t.Dir, t.Time, w) {
			matched++
		}
	}
	return float64(matched) / float64(len(src))
}

// FailurePair records one matched failure pair by index.
type FailurePair struct {
	A, B int
}

// FailureMatch is the outcome of matching two failure lists.
type FailureMatch struct {
	// Pairs holds matched (A-index, B-index) pairs.
	Pairs []FailurePair
	// OnlyA and OnlyB are the unmatched indices.
	OnlyA, OnlyB []int
}

// Failures matches failure lists a and b: same link, start times
// within w, end times within w, one-to-one (greedy by start-time
// proximity within each link).
func Failures(a, b []trace.Failure, w time.Duration) FailureMatch {
	byLinkB := groupIndicesByLink(b)
	usedB := make(map[int]bool)
	var res FailureMatch
	order := startOrder(a)
	for _, ai := range order {
		fa := a[ai]
		cands := byLinkB[fa.Link]
		lo := fa.Start.Add(-w)
		j := sort.Search(len(cands), func(k int) bool { return !b[cands[k]].Start.Before(lo) })
		best := -1
		var bestDiff time.Duration
		for ; j < len(cands); j++ {
			bi := cands[j]
			fb := b[bi]
			if fb.Start.Sub(fa.Start) > w {
				break
			}
			if usedB[bi] {
				continue
			}
			endDiff := absDur(fb.End.Sub(fa.End))
			if endDiff > w {
				continue
			}
			diff := absDur(fb.Start.Sub(fa.Start)) + endDiff
			if best < 0 || diff < bestDiff {
				best, bestDiff = bi, diff
			}
		}
		if best >= 0 {
			usedB[best] = true
			res.Pairs = append(res.Pairs, FailurePair{A: ai, B: best})
		} else {
			res.OnlyA = append(res.OnlyA, ai)
		}
	}
	for i := range b {
		if !usedB[i] {
			res.OnlyB = append(res.OnlyB, i)
		}
	}
	sort.Ints(res.OnlyB)
	sort.Ints(res.OnlyA)
	sort.Slice(res.Pairs, func(i, j int) bool { return res.Pairs[i].A < res.Pairs[j].A })
	return res
}

// Intersects reports whether failure fa overlaps in time with any
// failure on the same link in the (sorted-per-link) index list.
func Intersects(fa trace.Failure, byLink map[topo.LinkID][]trace.Failure) bool {
	for _, fb := range byLink[fa.Link] {
		if fb.Start.After(fa.End) {
			break
		}
		if fa.Overlaps(fb.Start, fb.End) {
			return true
		}
	}
	return false
}

// GroupByLink builds a per-link failure index sorted (stably) by
// start time. Per-link lists are sized exactly via a counting pass.
func GroupByLink(fs []trace.Failure) map[topo.LinkID][]trace.Failure {
	counts := make(map[topo.LinkID]int)
	for _, f := range fs {
		counts[f.Link]++
	}
	byLink := make(map[topo.LinkID][]trace.Failure, len(counts))
	for _, f := range fs {
		if byLink[f.Link] == nil {
			byLink[f.Link] = make([]trace.Failure, 0, counts[f.Link])
		}
		byLink[f.Link] = append(byLink[f.Link], f)
	}
	for _, list := range byLink {
		slices.SortStableFunc(list, func(a, b trace.Failure) int { return a.Start.Compare(b.Start) })
	}
	return byLink
}

// groupIndicesByLink is GroupByLink over indices into fs, sorted
// (stably) by start time within each link.
func groupIndicesByLink(fs []trace.Failure) map[topo.LinkID][]int {
	counts := make(map[topo.LinkID]int)
	for _, f := range fs {
		counts[f.Link]++
	}
	byLink := make(map[topo.LinkID][]int, len(counts))
	for i, f := range fs {
		if byLink[f.Link] == nil {
			byLink[f.Link] = make([]int, 0, counts[f.Link])
		}
		byLink[f.Link] = append(byLink[f.Link], i)
	}
	for _, list := range byLink {
		slices.SortStableFunc(list, func(x, y int) int { return fs[x].Start.Compare(fs[y].Start) })
	}
	return byLink
}

// startOrder returns the indices of fs sorted (stably) by start time:
// the greedy matching order.
func startOrder(fs []trace.Failure) []int {
	order := make([]int, len(fs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int { return fs[x].Start.Compare(fs[y].Start) })
	return order
}

// IntersectionDowntime returns the total time during which both
// sources agree a link was down, summed over links: the Overlap cell
// of Table 4's downtime row. The second source comes grouped by
// GroupByLink. Each link is one merge in start order: b's cursor passes
// a failure that ends by a's current start, which no later a overlaps.
func IntersectionDowntime(a []trace.Failure, byLinkB map[topo.LinkID][]trace.Failure) time.Duration {
	var total time.Duration
	for link, order := range groupIndicesByLink(a) {
		fbs, next := byLinkB[link], 0
		for _, i := range order {
			fa := &a[i]
			for next < len(fbs) && !fbs[next].End.After(fa.Start) {
				next++
			}
			for _, fb := range fbs[next:] {
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
	}
	return total
}

// WindowPoint is one sample of the window-size sweep.
type WindowPoint struct {
	Window time.Duration
	// MatchedDowntimeFraction is the share of source-A downtime in
	// failures matched at this window.
	MatchedDowntimeFraction float64
	// MatchedFailureFraction is the share of source-A failures
	// matched.
	MatchedFailureFraction float64
}

// WindowSweep evaluates failure matching over a range of window
// sizes: the analysis behind the paper's choice of ten seconds (the
// knee of this curve).
//
// The per-link candidate index is built once, for the largest window,
// and every window size is then evaluated incrementally over the
// precomputed candidate lists — O(windows × candidates) instead of
// re-running Failures (O(windows × n log n)) from scratch. Each
// point is exactly what Failures would report at that window: the
// candidate enumeration order, the end-time filter, and the greedy
// best-pair selection are identical.
func WindowSweep(a, b []trace.Failure, windows []time.Duration) []WindowPoint {
	if len(windows) == 0 {
		return nil
	}
	totalDowntime := trace.TotalDowntime(a)
	var maxW time.Duration
	for _, w := range windows {
		if w > maxW {
			maxW = w
		}
	}
	sweep := newFailureSweep(a, b, maxW)
	out := make([]WindowPoint, 0, len(windows))
	for _, w := range windows {
		pairs, matchedDown := sweep.evaluate(w)
		pt := WindowPoint{Window: w}
		if totalDowntime > 0 {
			pt.MatchedDowntimeFraction = float64(matchedDown) / float64(totalDowntime)
		}
		if len(a) > 0 {
			pt.MatchedFailureFraction = float64(pairs) / float64(len(a))
		}
		out = append(out, pt)
	}
	return out
}

// sweepCandidate is one (a, b) failure pair that can match at some
// window size ≤ the sweep's maximum: both the start and end time
// differences are within it.
type sweepCandidate struct {
	bi        int
	startDiff time.Duration // |b.Start − a.Start|
	endDiff   time.Duration // |b.End − a.End|
	diff      time.Duration // startDiff + endDiff, the greedy score
}

// failureSweep holds the candidate index a WindowSweep evaluates all
// its window sizes against.
type failureSweep struct {
	a []trace.Failure
	// order is the greedy matching order: a-indices by start time.
	order []int
	// cands[k] lists, for a-index order[k], the b-candidates in
	// b-start order — the enumeration order Failures uses.
	cands [][]sweepCandidate
	// usedB/pairedA are per-evaluation scratch, reset by epoch
	// stamping instead of reallocation.
	usedB []int
	epoch int
}

// newFailureSweep precomputes the candidate lists for the largest
// window of the sweep.
func newFailureSweep(a, b []trace.Failure, maxW time.Duration) *failureSweep {
	s := &failureSweep{
		a:     a,
		order: startOrder(a),
		cands: make([][]sweepCandidate, len(a)),
		usedB: make([]int, len(b)),
	}
	for i := range s.usedB {
		s.usedB[i] = -1
	}
	byLinkB := groupIndicesByLink(b)
	for k, ai := range s.order {
		fa := a[ai]
		cands := byLinkB[fa.Link]
		lo := fa.Start.Add(-maxW)
		j := sort.Search(len(cands), func(k int) bool { return !b[cands[k]].Start.Before(lo) })
		var list []sweepCandidate
		for ; j < len(cands); j++ {
			bi := cands[j]
			fb := b[bi]
			if fb.Start.Sub(fa.Start) > maxW {
				break
			}
			endDiff := absDur(fb.End.Sub(fa.End))
			if endDiff > maxW {
				continue
			}
			list = append(list, sweepCandidate{
				bi:        bi,
				startDiff: absDur(fb.Start.Sub(fa.Start)),
				endDiff:   endDiff,
				diff:      absDur(fb.Start.Sub(fa.Start)) + endDiff,
			})
		}
		s.cands[k] = list
	}
	return s
}

// evaluate runs the greedy one-to-one matching at window w over the
// precomputed candidates and returns the pair count and the summed
// duration of matched a-failures.
func (s *failureSweep) evaluate(w time.Duration) (pairs int, matchedDown time.Duration) {
	s.epoch++
	for k := range s.order {
		best := -1
		var bestDiff time.Duration
		for _, c := range s.cands[k] {
			if c.startDiff > w || c.endDiff > w || s.usedB[c.bi] == s.epoch {
				continue
			}
			if best < 0 || c.diff < bestDiff {
				best, bestDiff = c.bi, c.diff
			}
		}
		if best >= 0 {
			s.usedB[best] = s.epoch
			pairs++
			matchedDown += s.a[s.order[k]].Duration()
		}
	}
	return pairs, matchedDown
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
