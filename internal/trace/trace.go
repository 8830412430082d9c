// Package trace defines the common failure-trace model shared by the
// syslog and IS-IS reconstruction pipelines: state transitions,
// failures (a Down followed by an Up on the same link), ambiguous
// repeated transitions, flap episodes, and the sanitization steps the
// paper applies before comparing the two sources (§3.4, §4.2, §4.3).
package trace

import (
	"fmt"
	"sort"
	"time"

	"netfail/internal/topo"
)

// Direction is the sense of a state transition.
type Direction int

const (
	// Down withdraws a link from service.
	Down Direction = iota
	// Up restores it.
	Up
)

// String returns "down" or "up".
func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// Kind records which observation channel produced a transition.
type Kind int

const (
	// KindISISAdj is a syslog IS-IS adjacency-change message.
	KindISISAdj Kind = iota
	// KindPhysical is a syslog physical-media message: the interface
	// or its line protocol changed state.
	KindPhysical
	// KindLineProto is a syslog line-protocol message. The extractor
	// files those under KindPhysical; the value keeps its place
	// because the kinds after it are written to disk.
	KindLineProto
	// KindISReach is an IS-IS listener transition derived from the
	// Extended IS Reachability TLV.
	KindISReach
	// KindIPReach is an IS-IS listener transition derived from the
	// Extended IP Reachability TLV.
	KindIPReach
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindISISAdj:
		return "isis-adj"
	case KindPhysical:
		return "physical"
	case KindLineProto:
		return "lineproto"
	case KindISReach:
		return "is-reach"
	case KindIPReach:
		return "ip-reach"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind is the inverse of Kind.String.
func ParseKind(s string) (Kind, error) {
	for _, k := range []Kind{KindISISAdj, KindPhysical, KindLineProto, KindISReach, KindIPReach} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown kind %q", s)
}

// Transition is one observed link state change, already resolved onto
// the common link namespace.
type Transition struct {
	Time time.Time
	Link topo.LinkID
	Dir  Direction
	Kind Kind
	// Reporter is the router that observed the transition: the
	// syslog sender, or the LSP originator for listener transitions.
	// Table 3 counts how many of a link's two routers reported.
	Reporter string
}

// Failure is one reconstructed outage: a Down at Start terminated by
// an Up at End on the same link.
type Failure struct {
	Link  topo.LinkID
	Start time.Time
	End   time.Time
}

// Duration is the failure length.
func (f Failure) Duration() time.Duration { return f.End.Sub(f.Start) }

// Overlaps reports whether two time intervals intersect.
func (f Failure) Overlaps(start, end time.Time) bool {
	return f.Start.Before(end) && start.Before(f.End)
}

// Interval is a closed-open time span, used for listener-offline
// windows and isolation events.
type Interval struct {
	Start, End time.Time
}

// Contains reports whether t falls inside the interval.
func (iv Interval) Contains(t time.Time) bool {
	return !t.Before(iv.Start) && t.Before(iv.End)
}

// Duration is the interval length.
func (iv Interval) Duration() time.Duration { return iv.End.Sub(iv.Start) }

// Ambiguity records a nonsensical repeated transition: a Down
// preceded by a Down, or an Up preceded by an Up, with no intervening
// opposite transition (§4.3). The span between First and Second is
// the ambiguous period.
type Ambiguity struct {
	Link   topo.LinkID
	Dir    Direction
	First  time.Time
	Second time.Time
}

// Span returns the ambiguous period as an interval.
func (a Ambiguity) Span() Interval { return Interval{Start: a.First, End: a.Second} }

// SortTransitions orders transitions by time, then link, then
// direction (Down first), then reporter, for deterministic pipelines.
func SortTransitions(ts []Transition) {
	sort.Slice(ts, func(i, j int) bool {
		if !ts[i].Time.Equal(ts[j].Time) {
			return ts[i].Time.Before(ts[j].Time)
		}
		if ts[i].Link != ts[j].Link {
			return ts[i].Link < ts[j].Link
		}
		if ts[i].Dir != ts[j].Dir {
			return ts[i].Dir == Down
		}
		return ts[i].Reporter < ts[j].Reporter
	})
}
