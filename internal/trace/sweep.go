package trace

import (
	"slices"
	"time"

	"netfail/internal/topo"
)

// SweepFailures replays a failure list over sw in time order: at each
// distinct instant it applies every start and end that falls there —
// ends first, so the down set stays minimal — and then calls visit
// once. A link is down while more of its failures have started than
// ended, so overlapping failures on one link nest and a zero-length
// one never shows.
func SweepFailures(sw *topo.Sweep, failures []Failure, visit func(t time.Time)) {
	type boundary struct {
		at    time.Time
		link  int32
		delta int32
	}
	bounds := make([]boundary, 0, 2*len(failures))
	for _, f := range failures {
		l := int32(sw.Link(f.Link))
		bounds = append(bounds, boundary{f.Start, l, +1}, boundary{f.End, l, -1})
	}
	slices.SortFunc(bounds, func(a, b boundary) int {
		if c := a.at.Compare(b.at); c != 0 {
			return c
		}
		return int(a.delta - b.delta)
	})
	for i := 0; i < len(bounds); {
		t := bounds[i].at
		for ; i < len(bounds) && bounds[i].at.Equal(t); i++ {
			sw.Add(int(bounds[i].link), int(bounds[i].delta))
		}
		visit(t)
	}
}
