package trace

import "time"

// LongFailureThreshold is the duration above which the paper manually
// verifies syslog failures against trouble tickets (§4.2): failures
// longer than 24 hours are frequently artifacts of lost messages.
const LongFailureThreshold = 24 * time.Hour

// SanitizeReport accounts for what sanitization removed.
type SanitizeReport struct {
	// Kept is the surviving failure list.
	Kept []Failure
	SanitizeCounts
}

// SanitizeCounts is the accounting of a SanitizeReport without the
// kept list: what the paper's Table 4 reports.
type SanitizeCounts struct {
	// RemovedOffline counts failures dropped for overlapping a
	// listener-offline window.
	RemovedOffline int
	// LongChecked counts failures exceeding the long-failure
	// threshold that were submitted for verification.
	LongChecked int
	// LongRemoved counts long failures rejected by verification,
	// with LongRemovedTime their total duration (the paper removes
	// ~6,000 hours of spurious downtime this way).
	LongRemoved     int
	LongRemovedTime time.Duration
}

// Sanitize applies the paper's two cleaning steps to a failure list:
// remove failures that span listener-offline windows (those periods
// cannot be compared), and verify failures longer than the threshold
// with the verify callback — typically a trouble-ticket lookup —
// dropping the ones it rejects. A nil verify keeps all long failures.
func Sanitize(failures []Failure, offline []Interval, threshold time.Duration, verify func(Failure) bool) SanitizeReport {
	var rep SanitizeReport
	for _, f := range failures {
		overlapsOffline := false
		for _, w := range offline {
			if f.Overlaps(w.Start, w.End) {
				overlapsOffline = true
				break
			}
		}
		if overlapsOffline {
			rep.RemovedOffline++
			continue
		}
		if threshold > 0 && f.Duration() > threshold {
			rep.LongChecked++
			if verify != nil && !verify(f) {
				rep.LongRemoved++
				rep.LongRemovedTime += f.Duration()
				continue
			}
		}
		rep.Kept = append(rep.Kept, f)
	}
	return rep
}

// TotalDowntime sums failure durations.
func TotalDowntime(failures []Failure) time.Duration {
	var total time.Duration
	for _, f := range failures {
		total += f.Duration()
	}
	return total
}
