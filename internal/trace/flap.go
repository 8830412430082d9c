package trace

import (
	"sort"
	"time"

	"netfail/internal/topo"
)

// DefaultFlapGap is the paper's flapping rule: two or more consecutive
// failures on the same link separated by less than ten minutes form a
// flapping episode (§4.1).
const DefaultFlapGap = 10 * time.Minute

// Episode is one flapping episode: a maximal run of failures on one
// link with inter-failure gaps below the threshold.
type Episode struct {
	Link     topo.LinkID
	Failures []Failure
}

// Start returns the episode's first failure start.
func (e Episode) Start() time.Time { return e.Failures[0].Start }

// End returns the episode's last failure end.
func (e Episode) End() time.Time { return e.Failures[len(e.Failures)-1].End }

// IsFlap reports whether the episode contains at least two failures.
func (e Episode) IsFlap() bool { return len(e.Failures) >= 2 }

// Episodes groups failures (any link mix, any order) into episodes
// using the given maximum gap. Every failure lands in exactly one
// episode; singleton episodes are non-flapping.
func Episodes(failures []Failure, gap time.Duration) []Episode {
	byLink := make(map[topo.LinkID][]Failure)
	for _, f := range failures {
		byLink[f.Link] = append(byLink[f.Link], f)
	}
	links := make([]topo.LinkID, 0, len(byLink))
	for link := range byLink {
		links = append(links, link)
	}
	sortLinkIDs(links)

	var episodes []Episode
	for _, link := range links {
		fs := byLink[link]
		sort.Slice(fs, func(i, j int) bool { return fs[i].Start.Before(fs[j].Start) })
		cur := Episode{Link: link, Failures: []Failure{fs[0]}}
		for _, f := range fs[1:] {
			prevEnd := cur.Failures[len(cur.Failures)-1].End
			if f.Start.Sub(prevEnd) < gap {
				cur.Failures = append(cur.Failures, f)
			} else {
				episodes = append(episodes, cur)
				cur = Episode{Link: link, Failures: []Failure{f}}
			}
		}
		episodes = append(episodes, cur)
	}
	return episodes
}

// FlapIndex answers "was this link flapping at time t" queries, which
// the matching analysis uses to attribute unmatched transitions to
// flap periods (§4.1).
type FlapIndex struct {
	spans map[topo.LinkID][]Interval
}

// NewFlapIndex builds the index from failures using the given gap.
// A flap span covers the whole episode, padded by the gap on both
// sides so transitions just outside the episode's failures still
// count as flap-time.
func NewFlapIndex(failures []Failure, gap time.Duration) *FlapIndex {
	idx := &FlapIndex{spans: make(map[topo.LinkID][]Interval)}
	for _, e := range Episodes(failures, gap) {
		if !e.IsFlap() {
			continue
		}
		idx.spans[e.Link] = append(idx.spans[e.Link], Interval{
			Start: e.Start().Add(-gap),
			End:   e.End().Add(gap),
		})
	}
	for _, spans := range idx.spans {
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	}
	return idx
}

// InFlap reports whether the link was inside a flapping episode at t.
func (idx *FlapIndex) InFlap(link topo.LinkID, t time.Time) bool {
	spans := idx.spans[link]
	i := sort.Search(len(spans), func(i int) bool { return spans[i].End.After(t) })
	return i < len(spans) && spans[i].Contains(t)
}
