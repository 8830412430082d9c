package core

import (
	"sort"
	"time"

	"netfail/internal/topo"
	"netfail/internal/trace"
)

// EgregiousMatch is a matched pair of isolation events whose
// durations disagree wildly — the paper's §4.4 anecdotes ("in one
// case a site is isolated for 7 hours; syslog only detects the
// isolation nine seconds before it ended; in a second case, syslog
// believes a site isolated for 17 hours that IS-IS saw for under a
// minute").
type EgregiousMatch struct {
	Customer string
	ISIS     trace.Interval
	Syslog   trace.Interval
	// Ratio is max(duration)/min(duration); Overlap the shared time.
	Ratio   float64
	Overlap time.Duration
}

// EgregiousIsolations returns the matched isolation-event pairs with
// the largest duration disagreement, worst first, up to limit.
func (a *Analysis) EgregiousIsolations(limit int) []EgregiousMatch {
	if len(a.In.Customers) == 0 {
		return nil
	}
	isisEvents, syslogEvents := a.isolationEvents()

	paired, _, _ := matchIsolationEvents(isisEvents, syslogEvents)
	var out []EgregiousMatch
	for i, j := range paired {
		if j < 0 {
			continue
		}
		ie, se := isisEvents[i], syslogEvents[j]
		di, ds := ie.Duration(), se.Duration()
		longer, shorter := di, ds
		if ds > di {
			longer, shorter = ds, di
		}
		ratio := float64(longer) / float64(max64(shorter, time.Second))
		out = append(out, EgregiousMatch{
			Customer: ie.Customer,
			ISIS:     ie.Interval,
			Syslog:   se.Interval,
			Ratio:    ratio,
			Overlap:  overlap(ie.Interval, se.Interval),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ratio > out[j].Ratio })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

func max64(d, floor time.Duration) time.Duration {
	if d < floor {
		return floor
	}
	return d
}

// TimelineEntry is one event in a link's merged chronology.
type TimelineEntry struct {
	Time time.Time
	// Source is "syslog" or "isis".
	Source string
	Dir    trace.Direction
	// Reporter is the observing router (syslog) or LSP originator.
	Reporter string
}

// LinkTimeline merges both sources' transition streams for one link
// into a single chronology — the view an operator wants when chasing
// one of the egregious disagreements.
func (a *Analysis) LinkTimeline(link topo.LinkID) []TimelineEntry {
	var out []TimelineEntry
	add := func(ts []trace.Transition, source string) {
		for _, t := range ts {
			if t.Link != link {
				continue
			}
			out = append(out, TimelineEntry{
				Time: t.Time, Source: source, Dir: t.Dir, Reporter: t.Reporter,
			})
		}
	}
	add(a.SyslogAdj, "syslog")
	add(a.ISReach, "isis")
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Time.Equal(out[j].Time) {
			return out[i].Time.Before(out[j].Time)
		}
		return out[i].Source < out[j].Source
	})
	return out
}

// WorstDisagreementLinks ranks analyzed links by the absolute gap
// between syslog and IS-IS downtime, worst first, up to limit.
func (a *Analysis) WorstDisagreementLinks(limit int) []topo.LinkID {
	syslogDown := perLinkDowntime(a.SyslogFailures)
	isisDown := perLinkDowntime(a.ISISFailures)
	type row struct {
		link topo.LinkID
		gap  time.Duration
	}
	var rows []row
	for _, l := range a.AnalyzedLinks {
		gap := syslogDown[l.ID] - isisDown[l.ID]
		if gap < 0 {
			gap = -gap
		}
		if gap > 0 {
			rows = append(rows, row{l.ID, gap})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].gap != rows[j].gap {
			return rows[i].gap > rows[j].gap
		}
		return rows[i].link < rows[j].link
	})
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	out := make([]topo.LinkID, len(rows))
	for i, r := range rows {
		out[i] = r.link
	}
	return out
}

func perLinkDowntime(fs []trace.Failure) map[topo.LinkID]time.Duration {
	out := make(map[topo.LinkID]time.Duration)
	for _, f := range fs {
		out[f.Link] += f.Duration()
	}
	return out
}
