package report

import (
	"math"
	"time"

	"netfail/internal/core"
	"netfail/internal/trace"
)

// Paper values the text report also quotes in parts: Table 6's causes,
// which its totals sum, and the two §4.3 shares the paper gives as
// counts.
const (
	lostDown, lostUp                = 194, 174
	spuriousDown, spuriousUp        = 240, 28
	unknownDown, unknownUp          = 27, 0
	longFPs, longFPsOutsideFlap     = 373, 19
	fpDowntimeH, partialFPDowntimeH = 383, 365.5
)

// Scorecard is every claim of the paper's evaluation this repository
// scores, section by section (Turner et al., IMC 2013). The markdown
// report, EXPERIMENTS.md's tables and the text report's paper column
// all read it, so each paper number is written here once.
var Scorecard = []Section{
	{"table1", "Table 1 — dataset summary", []Row{
		{"t1.core-routers", "Core routers", 60, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table1.CoreRouters) }},
		{"t1.cpe-routers", "CPE routers", 175, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table1.CPERouters) }},
		{"t1.core-links", "Core links", 84, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table1.CoreLinks) }},
		{"t1.cpe-links", "CPE links", 215, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table1.CPELinks) }},
		{"t1.config-files", "Router config files", 11623, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table1.ConfigFiles) }},
		{"t1.syslog-messages", "Syslog messages", 47371, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table1.SyslogMessages) }},
		{"t1.isis-updates", "IS-IS updates", 11095550, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table1.ISISUpdates) }},
		{"t1.multilink-pairs", "Multi-link adjacency pairs", 26, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table1.MultiLinkAdjacencyPairs) }},
	}},
	{"table2", "Table 2 — transitions matching syslog, by reachability field", []Row{
		{"t2.isis-down-is", "IS-IS Down vs IS reachability", 0.82, Frac, Share, func(t *core.Tables) float64 { return t.Table2.ISISDownVsIS }},
		{"t2.isis-down-ip", "IS-IS Down vs IP reachability", 0.25, Frac, Share, func(t *core.Tables) float64 { return t.Table2.ISISDownVsIP }},
		{"t2.isis-up-is", "IS-IS Up vs IS reachability", 0.85, Frac, Share, func(t *core.Tables) float64 { return t.Table2.ISISUpVsIS }},
		{"t2.isis-up-ip", "IS-IS Up vs IP reachability", 0.23, Frac, Share, func(t *core.Tables) float64 { return t.Table2.ISISUpVsIP }},
		{"t2.phys-down-is", "physical Down vs IS reachability", 0.31, Frac, Share, func(t *core.Tables) float64 { return t.Table2.PhysDownVsIS }},
		{"t2.phys-down-ip", "physical Down vs IP reachability", 0.52, Frac, Share, func(t *core.Tables) float64 { return t.Table2.PhysDownVsIP }},
		{"t2.phys-up-is", "physical Up vs IS reachability", 0.34, Frac, Share, func(t *core.Tables) float64 { return t.Table2.PhysUpVsIS }},
		{"t2.phys-up-ip", "physical Up vs IP reachability", 0.53, Frac, Share, func(t *core.Tables) float64 { return t.Table2.PhysUpVsIP }},
	}},
	{"table3", "Table 3 — IS-IS transitions by matching syslog messages", []Row{
		{"t3.down-none", "DOWN, no message", 0.18, Frac, Share, func(t *core.Tables) float64 { return share(t.Table3.Down.None, t.Table3.Down.Total()) }},
		{"t3.down-one", "DOWN, one message", 0.39, Frac, Share, func(t *core.Tables) float64 { return share(t.Table3.Down.One, t.Table3.Down.Total()) }},
		{"t3.down-both", "DOWN, both messages", 0.43, Frac, Share, func(t *core.Tables) float64 { return share(t.Table3.Down.Both, t.Table3.Down.Total()) }},
		{"t3.up-none", "UP, no message", 0.15, Frac, Share, func(t *core.Tables) float64 { return share(t.Table3.Up.None, t.Table3.Up.Total()) }},
		{"t3.up-one", "UP, one message", 0.48, Frac, Share, func(t *core.Tables) float64 { return share(t.Table3.Up.One, t.Table3.Up.Total()) }},
		{"t3.up-both", "UP, both messages", 0.37, Frac, Share, func(t *core.Tables) float64 { return share(t.Table3.Up.Both, t.Table3.Up.Total()) }},
		{"t3.flap-unmatched-down", "Unmatched DOWNs during flapping", 0.67, Frac, Share, func(t *core.Tables) float64 { return t.Table3.UnmatchedInFlapDown }},
		{"t3.flap-unmatched-up", "Unmatched UPs during flapping", 0.61, Frac, Share, func(t *core.Tables) float64 { return t.Table3.UnmatchedInFlapUp }},
		{"t3.flap-syslog-matched", "Syslog transitions matched during flapping", 0.5, Below, Share, func(t *core.Tables) float64 { return t.Table3.SyslogFlapMatchedFraction }},
	}},
	{"table4", "Table 4 — failures and downtime after sanitization", []Row{
		{"t4.isis-failures", "IS-IS failures", 11213, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table4.ISISFailures) }},
		{"t4.syslog-failures", "Syslog failures", 11738, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table4.SyslogFailures) }},
		{"t4.overlap-failures", "Overlap failures", 9298, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table4.OverlapFailures) }},
		{"t4.syslog-more-failures", "Syslog − IS-IS failures", 0, Above, Count, func(t *core.Tables) float64 { return float64(t.Table4.SyslogFailures - t.Table4.ISISFailures) }},
		{"t4.isis-downtime", "IS-IS downtime", 3648, Ratio, Hours, func(t *core.Tables) float64 { return t.Table4.ISISDowntime.Hours() }},
		{"t4.syslog-downtime", "Syslog downtime", 2714, Ratio, Hours, func(t *core.Tables) float64 { return t.Table4.SyslogDowntime.Hours() }},
		{"t4.overlap-downtime", "Overlap downtime", 2331, Ratio, Hours, func(t *core.Tables) float64 { return t.Table4.OverlapDowntime.Hours() }},
		{"t4.downtime-deficit", "Syslog downtime deficit against IS-IS", 0.256, Frac, Share, func(t *core.Tables) float64 { return 1 - ratio(t.Table4.SyslogDowntime, t.Table4.ISISDowntime) }},
		{"t4.fp-share", "Syslog false positives, share of syslog failures", 0.21, Frac, Share, func(t *core.Tables) float64 { return t.Table4.FalsePositiveFraction }},
		{"t4.verified-removed", "Spurious downtime removed by long-failure verification", 6000, Ratio, Hours, func(t *core.Tables) float64 { return t.Table4.SyslogSanitize.LongRemovedTime.Hours() }},
	}},
	{"fp", "§4.3 — false-positive anatomy", []Row{
		{"fp.total", "Syslog false positives", 2440, Ratio, Count, func(t *core.Tables) float64 { return float64(t.FalsePositives.Total) }},
		{"fp.short-share", "Short (≤ 10 s) share", 0.83, Frac, Share, func(t *core.Tables) float64 { return t.FalsePositives.ShortFraction() }},
		{"fp.long-downtime-share", "FP downtime in the long remainder", 0.94, Frac, Share, func(t *core.Tables) float64 { return t.FalsePositives.LongDowntimeFraction() }},
		{"fp.long-in-flap", "Long FPs during flapping", (longFPs - longFPsOutsideFlap) / float64(longFPs), Frac, Share, func(t *core.Tables) float64 {
			return share(t.FalsePositives.LongInFlap, t.FalsePositives.Total-t.FalsePositives.Short)
		}},
		{"fp.partial-downtime-share", "Partial-overlap share of FP downtime", partialFPDowntimeH / fpDowntimeH, Frac, Share, func(t *core.Tables) float64 {
			return ratio(t.FalsePositives.PartialOverlapDowntime, t.FalsePositives.ShortDowntime+t.FalsePositives.LongDowntime)
		}},
	}},
	{"table5", "Table 5 — per-link statistics and consistency", []Row{
		{"t5.core-syslog-fpl", "Core syslog failures/link/yr, median", 5.7, Ratio, Rate, func(t *core.Tables) float64 { return t.Table5.Core["syslog"].FailuresPerLink.Median }},
		{"t5.core-isis-fpl", "Core IS-IS failures/link/yr, median", 6.6, Ratio, Rate, func(t *core.Tables) float64 { return t.Table5.Core["isis"].FailuresPerLink.Median }},
		{"t5.cpe-syslog-fpl", "CPE syslog failures/link/yr, median", 11.3, Ratio, Rate, func(t *core.Tables) float64 { return t.Table5.CPE["syslog"].FailuresPerLink.Median }},
		{"t5.cpe-isis-fpl", "CPE IS-IS failures/link/yr, median", 12.3, Ratio, Rate, func(t *core.Tables) float64 { return t.Table5.CPE["isis"].FailuresPerLink.Median }},
		{"t5.core-syslog-dur", "Core syslog duration, median", 52, Ratio, Secs, func(t *core.Tables) float64 { return t.Table5.Core["syslog"].Duration.Median }},
		{"t5.core-isis-dur", "Core IS-IS duration, median", 42, Ratio, Secs, func(t *core.Tables) float64 { return t.Table5.Core["isis"].Duration.Median }},
		{"t5.cpe-syslog-dur", "CPE syslog duration, median", 10, Ratio, Secs, func(t *core.Tables) float64 { return t.Table5.CPE["syslog"].Duration.Median }},
		{"t5.cpe-isis-dur", "CPE IS-IS duration, median", 12, Ratio, Secs, func(t *core.Tables) float64 { return t.Table5.CPE["isis"].Duration.Median }},
		{"t5.core-syslog-down", "Core syslog downtime h/yr, median", 0.6, Ratio, Rate, func(t *core.Tables) float64 { return t.Table5.Core["syslog"].Downtime.Median }},
		{"t5.core-isis-down", "Core IS-IS downtime h/yr, median", 0.8, Ratio, Rate, func(t *core.Tables) float64 { return t.Table5.Core["isis"].Downtime.Median }},
		{"t5.cpe-syslog-down", "CPE syslog downtime h/yr, median", 1.9, Ratio, Rate, func(t *core.Tables) float64 { return t.Table5.CPE["syslog"].Downtime.Median }},
		{"t5.cpe-isis-down", "CPE IS-IS downtime h/yr, median", 2.4, Ratio, Rate, func(t *core.Tables) float64 { return t.Table5.CPE["isis"].Downtime.Median }},
		{"t5.core-dur-order", "Core syslog − IS-IS median duration", 0, Above, Secs, func(t *core.Tables) float64 {
			return t.Table5.Core["syslog"].Duration.Median - t.Table5.Core["isis"].Duration.Median
		}},
		{"t5.cpe-dur-order", "CPE syslog − IS-IS median duration", 0, Below, Secs, func(t *core.Tables) float64 {
			return t.Table5.CPE["syslog"].Duration.Median - t.Table5.CPE["isis"].Duration.Median
		}},
		{"t5.fpl-consistent", "failures/link, smaller KS/CvM p", 1, Consistent, PValue, func(t *core.Tables) float64 {
			return math.Min(t.Table5.KSFailuresPerLink.PValue, t.Table5.CvMFailuresPerLink.PValue)
		}},
		{"t5.dur-consistent", "duration, smaller KS/CvM p", 0, Consistent, PValue, func(t *core.Tables) float64 { return math.Min(t.Table5.KSDuration.PValue, t.Table5.CvMDuration.PValue) }},
		{"t5.down-consistent", "downtime, smaller KS/CvM p", 1, Consistent, PValue, func(t *core.Tables) float64 { return math.Min(t.Table5.KSDowntime.PValue, t.Table5.CvMDowntime.PValue) }},
	}},
	{"table6", "Table 6 — ambiguous state changes", []Row{
		{"t6.lost-down", "Lost message, Down", lostDown, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table6.LostDown) }},
		{"t6.lost-up", "Lost message, Up", lostUp, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table6.LostUp) }},
		{"t6.spurious-down", "Spurious retransmission, Down", spuriousDown, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table6.SpuriousDown) }},
		{"t6.spurious-up", "Spurious retransmission, Up", spuriousUp, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table6.SpuriousUp) }},
		{"t6.unknown-down", "Unknown, Down", unknownDown, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table6.UnknownDown) }},
		{"t6.unknown-up", "Unknown, Up", unknownUp, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table6.UnknownUp) }},
		{"t6.total-down", "Total, Down", lostDown + spuriousDown + unknownDown, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table6.TotalDown()) }},
		{"t6.total-up", "Total, Up", lostUp + spuriousUp + unknownUp, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table6.TotalUp()) }},
		{"t6.ambiguous-share", "Ambiguous share of the measurement period", 0.078, Frac, Share, func(t *core.Tables) float64 { return t.Table6.AmbiguousFractionOfPeriod }},
		{"t6.spurious-same-failure", "Spurious Downs reporting the same failure", 0.99, Frac, Share, func(t *core.Tables) float64 { return t.Table6.SpuriousSameFailureDown }},
	}},
	{"ablation", "§4.3 — ambiguity-policy ablation", []Row{
		{"ab.vs-assume-down", "hold-previous − assume-down error", 0, Below, Hours, func(t *core.Tables) float64 {
			return policyError(t, trace.HoldPrevious) - policyError(t, trace.AssumeDown)
		}},
		{"ab.vs-assume-up", "hold-previous − assume-up error", 0, Below, Hours, func(t *core.Tables) float64 {
			return policyError(t, trace.HoldPrevious) - policyError(t, trace.AssumeUp)
		}},
	}},
	{"table7", "Table 7 — customer isolation", []Row{
		{"t7.isis-events", "IS-IS isolating events", 1401, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table7.ISISEvents) }},
		{"t7.syslog-events", "Syslog isolating events", 1060, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table7.SyslogEvents) }},
		{"t7.inter-events", "Intersection events", 1002, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table7.IntersectionEvents) }},
		{"t7.isis-sites", "IS-IS sites impacted", 74, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table7.ISISSites) }},
		{"t7.syslog-sites", "Syslog sites impacted", 67, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table7.SyslogSites) }},
		{"t7.inter-sites", "Intersection sites impacted", 66, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table7.IntersectionSites) }},
		{"t7.isis-days", "IS-IS isolation downtime", 26.3, Ratio, Days, func(t *core.Tables) float64 { return days(t.Table7.ISISDowntime) }},
		{"t7.syslog-days", "Syslog isolation downtime", 22.3, Ratio, Days, func(t *core.Tables) float64 { return days(t.Table7.SyslogDowntime) }},
		{"t7.inter-days", "Intersection isolation downtime", 19.8, Ratio, Days, func(t *core.Tables) float64 { return days(t.Table7.IntersectionDowntime) }},
		{"t7.syslog-fewer-events", "Syslog − IS-IS isolating events", 0, Below, Count, func(t *core.Tables) float64 { return float64(t.Table7.SyslogEvents - t.Table7.ISISEvents) }},
		{"t7.syslog-less-downtime", "Syslog − IS-IS isolation downtime", 0, Below, Days, func(t *core.Tables) float64 { return days(t.Table7.SyslogDowntime - t.Table7.ISISDowntime) }},
		{"t7.syslog-only", "Syslog-only events", 58, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table7.SyslogOnlyEvents) }},
		{"t7.isis-only", "IS-IS-only events", 399, Ratio, Count, func(t *core.Tables) float64 { return float64(t.Table7.ISISOnlyEvents) }},
		{"t7.isis-only-days", "IS-IS-only downtime", 6.5, Ratio, Days, func(t *core.Tables) float64 { return days(t.Table7.ISISOnlyDowntime) }},
	}},
	{"knee", "§3.4 — window-size sweep (knee at ten seconds)", []Row{
		{"knee.gain-by-10s", "Share of the 1 s → 1 min matched-downtime gain reached at 10 s", 0.5, Above, Share, func(t *core.Tables) float64 {
			return (matchedAt(t, 10*time.Second) - matchedAt(t, time.Second)) / (matchedAt(t, time.Minute) - matchedAt(t, time.Second))
		}},
	}},
}

// share is n of total, 0 for none.
func share(n, total int) float64 { return float64(n) / float64(max(total, 1)) }

// ratio is a over b, 0 when b is.
func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func days(d time.Duration) float64 { return d.Hours() / 24 }

// matchedAt is the sweep's matched-downtime share at window w.
func matchedAt(t *core.Tables, w time.Duration) float64 {
	for _, p := range t.Knee {
		if p.Window == w {
			return p.MatchedDowntimeFraction
		}
	}
	return 0
}

// policyError is the ablation's |error| in hours under policy p.
func policyError(t *core.Tables, p trace.AmbiguityPolicy) float64 {
	for _, r := range t.Policies {
		if r.Policy == p {
			return r.AbsError.Hours()
		}
	}
	return 0
}
