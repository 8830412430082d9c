package trace

import (
	"sort"
	"time"

	"netfail/internal/topo"
)

// AmbiguityPolicy selects how the period between two repeated
// same-direction transitions is accounted (§4.3). The paper finds
// HoldPrevious — treating the offending message as a spurious
// retransmission and leaving link state unmodified — brings syslog
// downtime closest to IS-IS downtime.
type AmbiguityPolicy int

const (
	// HoldPrevious leaves the link in the state the first message
	// established (the paper's recommendation).
	HoldPrevious AmbiguityPolicy = iota
	// AssumeDown counts every ambiguous period as downtime.
	AssumeDown
	// AssumeUp counts every ambiguous period as uptime.
	AssumeUp
)

// String names the policy.
func (p AmbiguityPolicy) String() string {
	switch p {
	case AssumeDown:
		return "assume-down"
	case AssumeUp:
		return "assume-up"
	default:
		return "hold-previous"
	}
}

// Reconstruction is the output of turning one source's transition
// stream into failure events.
type Reconstruction struct {
	// Failures are the completed Down→Up events, ordered by link
	// then start time.
	Failures []Failure
	// Ambiguities are the repeated-transition records.
	Ambiguities []Ambiguity
	// OpenAtEnd counts failures still open when the observation
	// window closed (dropped from Failures).
	OpenAtEnd int
}

// Reconstruct builds failure events from transitions using the
// paper's recommended HoldPrevious rule for repeated transitions.
func Reconstruct(ts []Transition) Reconstruction {
	return ReconstructPolicy(ts, HoldPrevious)
}

// ReconstructPolicy builds failure events from transitions, which may
// cover many links and need not be sorted. Links are assumed up at
// the start of the observation window. Repeated same-direction
// transitions are recorded as ambiguities and the span between them
// is attributed per the policy (§4.3):
//
//   - HoldPrevious: the repeated message is spurious; a second Down
//     does not move a failure's start and a second Up creates nothing.
//   - AssumeDown: the span is downtime — a double Up inserts a
//     failure covering it; a double Down extends like HoldPrevious.
//   - AssumeUp: the span is uptime — a double Down restarts the
//     failure at the second message.
func ReconstructPolicy(ts []Transition, policy AmbiguityPolicy) Reconstruction {
	links, offsets, flat := groupLinkSeqs(ts)
	var rec Reconstruction
	for i, link := range links {
		reconstructLinkInto(link, flat[offsets[i]:offsets[i+1]], policy, &rec)
	}
	sortFailures(rec.Failures)
	return rec
}

// groupLinkSeqs groups the transitions per link into one contiguous
// buffer — counting pass, prefix sums, scatter — and returns the
// sorted link list with each link's [offsets[i], offsets[i+1]) slice
// of the buffer, time-sorted stably (equal-time transitions keep input
// order).
func groupLinkSeqs(ts []Transition) ([]topo.LinkID, []int32, []Transition) {
	idx := make(map[topo.LinkID]int32, 64)
	var links []topo.LinkID
	for i := range ts {
		if _, ok := idx[ts[i].Link]; !ok {
			idx[ts[i].Link] = 0
			links = append(links, ts[i].Link)
		}
	}
	sortLinkIDs(links)
	for i, l := range links {
		idx[l] = int32(i)
	}
	offsets := make([]int32, len(links)+1)
	for i := range ts {
		offsets[idx[ts[i].Link]+1]++
	}
	for i := 1; i < len(offsets); i++ {
		offsets[i] += offsets[i-1]
	}
	cursor := make([]int32, len(links))
	copy(cursor, offsets)
	flat := make([]Transition, len(ts))
	for i := range ts {
		li := idx[ts[i].Link]
		flat[cursor[li]] = ts[i]
		cursor[li]++
	}
	for i := 0; i < len(links); i++ {
		g := flat[offsets[i]:offsets[i+1]]
		sort.SliceStable(g, func(a, b int) bool { return g[a].Time.Before(g[b].Time) })
	}
	return links, offsets, flat
}

// reconstructLinkInto runs the state machine over one link's
// (time-sorted) transition sequence, appending to rec: one accumulator
// takes every link's output, so nothing is allocated per link.
func reconstructLinkInto(link topo.LinkID, seq []Transition, policy AmbiguityPolicy, rec *Reconstruction) {
	down := false
	var start time.Time
	var lastDir Direction
	var lastTime time.Time
	seen := false
	for _, t := range seq {
		if seen && t.Dir == lastDir {
			rec.Ambiguities = append(rec.Ambiguities, Ambiguity{
				Link: link, Dir: t.Dir, First: lastTime, Second: t.Time,
			})
			switch {
			case policy == AssumeUp && t.Dir == Down && down:
				// The span was uptime: restart the failure here.
				start = t.Time
			case policy == AssumeDown && t.Dir == Up && !down:
				// The span was downtime: record it as a failure.
				rec.Failures = append(rec.Failures, Failure{Link: link, Start: lastTime, End: t.Time})
			}
			lastTime = t.Time
			continue
		}
		switch t.Dir {
		case Down:
			down = true
			start = t.Time
		case Up:
			if down {
				rec.Failures = append(rec.Failures, Failure{Link: link, Start: start, End: t.Time})
				down = false
			} else if !seen {
				// Leading Up with no preceding Down: state was
				// already up; nothing to record.
			}
		}
		lastDir, lastTime, seen = t.Dir, t.Time, true
	}
	if down {
		rec.OpenAtEnd++
	}
}

func sortFailures(fs []Failure) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Link != fs[j].Link {
			return fs[i].Link < fs[j].Link
		}
		return fs[i].Start.Before(fs[j].Start)
	})
}

func sortLinkIDs(links []topo.LinkID) {
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
}
