package core

import (
	"time"

	"netfail/internal/match"
)

// FalsePositiveBreakdown reproduces the §4.3 analysis of syslog
// failures the IS-IS listener never saw: most are ten seconds or
// less (83% in the paper), almost all the false-positive downtime
// sits in the long remainder (94%), and the long ones concentrate in
// flapping periods. The footnote-2 decomposition — how much apparent
// false-positive downtime actually belongs to failures that partially
// overlap real ones — is included.
type FalsePositiveBreakdown struct {
	// Total counts syslog failures with no matching IS-IS failure.
	Total int
	// Short counts false positives at or below the threshold
	// (paper: ten seconds, 83%).
	Short          int
	ShortThreshold time.Duration
	// ShortDowntime and LongDowntime split the false-positive
	// downtime (paper: 94% belongs to the long remainder).
	ShortDowntime time.Duration
	LongDowntime  time.Duration
	// LongInFlap counts long false positives inside flapping periods
	// (paper: all but 19 of the 373).
	LongInFlap int
	// PartialOverlap counts false positives that intersect some
	// IS-IS failure without matching it, with their downtime —
	// footnote 2's 365.5 of 383 hours.
	PartialOverlap         int
	PartialOverlapDowntime time.Duration
	// PureDowntime is downtime of false positives with no IS-IS
	// overlap at all.
	PureDowntime time.Duration
}

// ShortFraction returns the share of false positives at or below the
// threshold.
func (b FalsePositiveBreakdown) ShortFraction() float64 {
	if b.Total == 0 {
		return 0
	}
	return float64(b.Short) / float64(b.Total)
}

// LongDowntimeFraction returns the share of false-positive downtime
// in the long remainder.
func (b FalsePositiveBreakdown) LongDowntimeFraction() float64 {
	total := b.ShortDowntime + b.LongDowntime
	if total == 0 {
		return 0
	}
	return float64(b.LongDowntime) / float64(total)
}

// FalsePositives computes the §4.3 breakdown with the paper's
// ten-second short threshold.
func (a *Analysis) FalsePositives() FalsePositiveBreakdown {
	return a.falsePositives(match.Failures(a.SyslogFailures, a.ISISFailures, a.In.Window), match.GroupByLink(a.ISISFailures))
}

func (a *Analysis) falsePositives(m match.FailureMatch, isisByLink byLink) FalsePositiveBreakdown {
	const threshold = 10 * time.Second
	b := FalsePositiveBreakdown{ShortThreshold: threshold}
	for _, i := range m.OnlyA {
		f := a.SyslogFailures[i]
		b.Total++
		short := f.Duration() <= threshold
		overlaps := match.Intersects(f, isisByLink)
		if overlaps {
			b.PartialOverlap++
			b.PartialOverlapDowntime += f.Duration()
		} else {
			b.PureDowntime += f.Duration()
		}
		if short {
			b.Short++
			b.ShortDowntime += f.Duration()
			continue
		}
		b.LongDowntime += f.Duration()
		if a.ISISFlaps.InFlap(f.Link, f.Start) || a.SyslogFlaps.InFlap(f.Link, f.Start) {
			b.LongInFlap++
		}
	}
	return b
}
