package core

import (
	"sort"
	"time"

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
