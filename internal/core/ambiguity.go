package core

import (
	"sort"
	"time"

	"netfail/internal/match"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// Table6 counts ambiguous state changes by cause and direction.
type Table6 struct {
	// Counts[cause] per direction of the repeated message.
	LostDown, LostUp         int
	SpuriousDown, SpuriousUp int
	UnknownDown, UnknownUp   int
	// AmbiguousFractionOfPeriod is the share of the (link-weighted)
	// measurement period covered by ambiguous spans (paper: 7.8%).
	AmbiguousFractionOfPeriod float64
	// SpuriousSameFailureDown is the share of spurious Down messages
	// reporting the same IS-IS failure as the preceding message
	// (paper: 99%).
	SpuriousSameFailureDown float64
}

// TotalDown and TotalUp return the per-direction totals.
func (t Table6) TotalDown() int { return t.LostDown + t.SpuriousDown + t.UnknownDown }

// TotalUp returns the Up-direction total.
func (t Table6) TotalUp() int { return t.LostUp + t.SpuriousUp + t.UnknownUp }

// failureAt returns the index among the link's failures of the one
// containing t, or -1: whether, and in which failure, the link was
// down at t.
func failureAt(failures byLink, link topo.LinkID, t time.Time) int {
	fs := failures[link]
	i := sort.Search(len(fs), func(i int) bool { return fs[i].End.After(t) })
	if i < len(fs) && !t.Before(fs[i].Start) {
		return i
	}
	return -1
}

// Table6 classifies the ambiguous state changes in the syslog stream
// against IS-IS ground truth.
func (a *Analysis) Table6() Table6 { return a.table6(index(a.ISReach)) }

func (a *Analysis) table6(is *match.TransitionIndex) Table6 {
	var t6 Table6
	w := a.In.Window
	state := match.GroupByLink(a.ISISRec.Failures)

	var spuriousDownSame, spuriousDownTotal int
	var ambiguousSpan time.Duration
	for _, amb := range a.SyslogRec.Ambiguities {
		ambiguousSpan += amb.Span().Duration()
		// Lost message: both repeated messages correspond to real
		// IS-IS transitions of their direction.
		firstReal := is.AnyWithin(amb.Link, amb.Dir, amb.First, w)
		secondReal := is.AnyWithin(amb.Link, amb.Dir, amb.Second, w)
		if firstReal && secondReal {
			if amb.Dir == trace.Down {
				t6.LostDown++
			} else {
				t6.LostUp++
			}
			continue
		}
		// Spurious retransmission: IS-IS already has the link in the
		// repeated state at the second message.
		isDown := failureAt(state, amb.Link, amb.Second) >= 0
		if (amb.Dir == trace.Down) == isDown {
			if amb.Dir == trace.Down {
				t6.SpuriousDown++
				spuriousDownTotal++
				f1 := failureAt(state, amb.Link, amb.First)
				f2 := failureAt(state, amb.Link, amb.Second)
				if f1 >= 0 && f1 == f2 {
					spuriousDownSame++
				}
			} else {
				t6.SpuriousUp++
			}
			continue
		}
		if amb.Dir == trace.Down {
			t6.UnknownDown++
		} else {
			t6.UnknownUp++
		}
	}
	if spuriousDownTotal > 0 {
		t6.SpuriousSameFailureDown = float64(spuriousDownSame) / float64(spuriousDownTotal)
	}
	// Normalize against the link-weighted measurement period: the
	// ambiguous spans live on individual links.
	span := a.In.End.Sub(a.In.Start)
	if span > 0 && len(a.AnalyzedLinks) > 0 {
		t6.AmbiguousFractionOfPeriod = float64(ambiguousSpan) / (float64(span) * float64(len(a.AnalyzedLinks)))
	}
	return t6
}

// DowntimePolicy is one row of the ambiguity-policy ablation: total
// syslog downtime under a policy, against the IS-IS reference.
type DowntimePolicy struct {
	Policy         trace.AmbiguityPolicy
	SyslogDowntime time.Duration
	// AbsError is |syslog − IS-IS| total downtime.
	AbsError time.Duration
}

// PolicyAblation evaluates the three §4.3 strategies for ambiguous
// periods. HoldPrevious is the sanitized baseline (the main
// pipeline's downtime, with its one-time manual verification of long
// failures). The alternative strategies differ only in how the spans
// between repeated messages are accounted: AssumeDown additionally
// counts every double-Up span as downtime, AssumeUp removes every
// double-Down span (where it lies inside a surviving failure) from
// downtime. Manual verification cannot be re-run per strategy, so the
// deltas are taken on the raw ambiguity records — which is exactly
// why AssumeDown overshoots catastrophically: multi-day double-Up
// spans all become downtime. The paper finds HoldPrevious minimizes
// the error.
func (a *Analysis) PolicyAblation() []DowntimePolicy {
	return a.policyAblation(match.GroupByLink(a.SyslogFailures))
}

func (a *Analysis) policyAblation(syslogByLink byLink) []DowntimePolicy {
	ref := trace.TotalDowntime(a.ISISFailures)
	base := trace.TotalDowntime(a.SyslogFailures)

	var addDown, subUp time.Duration
	for _, amb := range a.SyslogRec.Ambiguities {
		switch amb.Dir {
		case trace.Up:
			// HoldPrevious treated the span as uptime.
			addDown += amb.Span().Duration()
		case trace.Down:
			// HoldPrevious treated the span as downtime if its
			// containing failure survived sanitization.
			probe := trace.Failure{Link: amb.Link, Start: amb.First, End: amb.Second}
			if match.Intersects(probe, syslogByLink) {
				subUp += amb.Span().Duration()
			}
		}
	}
	mk := func(p trace.AmbiguityPolicy, total time.Duration) DowntimePolicy {
		err := total - ref
		if err < 0 {
			err = -err
		}
		return DowntimePolicy{Policy: p, SyslogDowntime: total, AbsError: err}
	}
	return []DowntimePolicy{
		mk(trace.HoldPrevious, base),
		mk(trace.AssumeDown, base+addDown),
		mk(trace.AssumeUp, base-subUp),
	}
}
