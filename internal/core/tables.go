package core

import (
	"context"
	"slices"
	"time"

	"netfail/internal/match"
	"netfail/internal/obs"
	"netfail/internal/pool"
	"netfail/internal/stats"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// Tables is the paper's evaluation section: every table, breakdown,
// sweep and figure the report renders.
type Tables struct {
	Table1         Table1
	Table2         Table2
	Table3         Table3
	Table4         Table4
	FalsePositives FalsePositiveBreakdown
	Table5         Table5
	Table6         Table6
	Policies       []DowntimePolicy
	Table7         Table7
	Knee           []match.WindowPoint
	Figure1        Figure1
}

// Tables computes every section over the analysis's worker pool.
// ConfigFiles and isisUpdates are Table 1's campaign-level counts.
func (a *Analysis) Tables(configFiles, isisUpdates int) Tables {
	t, _ := a.TablesContext(context.Background(), configFiles, isisUpdates, a.In.Parallelism)
	return t
}

// TablesContext is Tables on a pool of the given size (<= 0 means
// GOMAXPROCS, 1 the calling goroutine). What sections share is built
// first and only read after, so every size gives the same Tables.
// Cancellation stops dispatching sections and returns ctx's error; a
// tracer gets a "tables/views" span and one "tables/<section>" each.
func (a *Analysis) TablesContext(ctx context.Context, configFiles, isisUpdates, parallelism int) (Tables, error) {
	_, span := obs.StartSpan(ctx, "tables/views")
	matched := match.Failures(a.SyslogFailures, a.ISISFailures, a.In.Window)
	isisByLink, syslogByLink := match.GroupByLink(a.ISISFailures), match.GroupByLink(a.SyslogFailures)
	is := index(a.ISReach)
	samples := a.samples()
	span.End()
	var t Tables
	sections := []struct {
		name string
		fill func()
	}{
		{"table1", func() { t.Table1 = a.Table1(configFiles, isisUpdates) }},
		{"table2", func() { t.Table2 = a.table2(index(a.SyslogAdj), index(a.SyslogPhysical)) }},
		{"table3", func() { t.Table3 = a.table3(index(a.SyslogPerRtr), is) }},
		{"table4", func() { t.Table4 = a.table4(matched, isisByLink) }},
		{"false-positives", func() { t.FalsePositives = a.falsePositives(matched, isisByLink) }},
		{"table5", func() { t.Table5 = table5(samples) }},
		{"table6", func() { t.Table6 = a.table6(is) }},
		{"policies", func() { t.Policies = a.policyAblation(syslogByLink) }},
		{"table7", func() { t.Table7 = a.table7(isisByLink, syslogByLink) }},
		{"knee", func() { t.Knee = a.WindowKnee(nil) }},
		{"figure1", func() { t.Figure1 = figure1(samples) }},
	}
	err := pool.ForEachCtx(ctx, len(sections), pool.Resolve(parallelism), func(sctx context.Context, i int) {
		_, span := obs.StartSpan(sctx, "tables/"+sections[i].name)
		sections[i].fill()
		span.End()
	})
	return t, err
}

// Table1 is the dataset summary (paper Table 1).
type Table1 struct {
	Period                  trace.Interval
	CoreRouters, CPERouters int
	ConfigFiles             int
	CoreLinks, CPELinks     int
	SyslogMessages          int
	ISISUpdates             int
	MultiLinkAdjacencyPairs int
	AnalyzedLinks           int
}

// Table1 fills the dataset summary. ConfigFiles and ISISUpdates are
// campaign-level counts the analysis cannot see; callers supply them.
func (a *Analysis) Table1(configFiles, isisUpdates int) Table1 {
	core, cpe := a.In.Network.CountRouters()
	coreLinks, cpeLinks := a.In.Network.CountLinks()
	return Table1{
		Period:                  trace.Interval{Start: a.In.Start, End: a.In.End},
		CoreRouters:             core,
		CPERouters:              cpe,
		ConfigFiles:             configFiles,
		CoreLinks:               coreLinks,
		CPELinks:                cpeLinks,
		SyslogMessages:          a.Traces.Messages,
		ISISUpdates:             isisUpdates,
		MultiLinkAdjacencyPairs: len(a.In.Network.MultiLinkAdjacencies()),
		AnalyzedLinks:           len(a.AnalyzedLinks),
	}
}

// Table2 reports, for each reachability field, the fraction of its
// state transitions that match syslog transitions of each class
// (paper Table 2).
type Table2 struct {
	// Rows: [direction] → matched fraction, per syslog class and
	// reachability field.
	ISISDownVsIS, ISISDownVsIP float64
	ISISUpVsIS, ISISUpVsIP     float64
	PhysDownVsIS, PhysDownVsIP float64
	PhysUpVsIS, PhysUpVsIP     float64
}

// Table2 computes the reachability-field comparison.
func (a *Analysis) Table2() Table2 { return a.table2(index(a.SyslogAdj), index(a.SyslogPhysical)) }

// table2 asks each syslog stream's index for both directions: the
// index keys on direction, so it answers as one built per direction.
func (a *Analysis) table2(adj, phys *match.TransitionIndex) Table2 {
	w := a.In.Window
	isDown, isUp := splitDir(a.ISReach)
	ipDown, ipUp := splitDir(a.IPReach)
	return Table2{
		ISISDownVsIS: adj.MatchedFraction(isDown, w),
		ISISDownVsIP: adj.MatchedFraction(ipDown, w),
		ISISUpVsIS:   adj.MatchedFraction(isUp, w),
		ISISUpVsIP:   adj.MatchedFraction(ipUp, w),
		PhysDownVsIS: phys.MatchedFraction(isDown, w),
		PhysDownVsIP: phys.MatchedFraction(ipDown, w),
		PhysUpVsIS:   phys.MatchedFraction(isUp, w),
		PhysUpVsIP:   phys.MatchedFraction(ipUp, w),
	}
}

func splitDir(ts []trace.Transition) (down, up []trace.Transition) {
	for _, t := range ts {
		if t.Dir == trace.Down {
			down = append(down, t)
		} else {
			up = append(up, t)
		}
	}
	return down, up
}

// Table3Row counts IS-IS transitions by how many of the link's two
// routers sent a matching syslog message.
type Table3Row struct {
	None, One, Both int
}

// Total returns the row total.
func (r Table3Row) Total() int { return r.None + r.One + r.Both }

// Table3 is the per-direction transition accounting plus the flap
// attribution of §4.1.
type Table3 struct {
	Down, Up Table3Row
	// UnmatchedInFlapDown/Up is the fraction of None-transitions
	// that occurred during flapping (paper: 67% and 61%).
	UnmatchedInFlapDown float64
	UnmatchedInFlapUp   float64
	// SyslogFlapMatchedFraction is the share of syslog transitions
	// during flap periods that match an IS-IS transition (paper:
	// under one half).
	SyslogFlapMatchedFraction float64
}

// Table3 computes the message-level matching table.
func (a *Analysis) Table3() Table3 { return a.table3(index(a.SyslogPerRtr), index(a.ISReach)) }

func (a *Analysis) table3(perRtr, is *match.TransitionIndex) Table3 {
	w := a.In.Window
	var t3 Table3
	var noneFlapDown, noneFlapUp int
	for _, tr0 := range a.ISReach {
		reporters := perRtr.ReporterCount(tr0.Link, tr0.Dir, tr0.Time, w)
		row := &t3.Down
		if tr0.Dir == trace.Up {
			row = &t3.Up
		}
		switch reporters {
		case 0:
			row.None++
			if a.ISISFlaps.InFlap(tr0.Link, tr0.Time) {
				if tr0.Dir == trace.Down {
					noneFlapDown++
				} else {
					noneFlapUp++
				}
			}
		case 1:
			row.One++
		default:
			row.Both++
		}
	}
	if t3.Down.None > 0 {
		t3.UnmatchedInFlapDown = float64(noneFlapDown) / float64(t3.Down.None)
	}
	if t3.Up.None > 0 {
		t3.UnmatchedInFlapUp = float64(noneFlapUp) / float64(t3.Up.None)
	}

	// Reverse view: syslog transitions during flap vs IS-IS.
	var flapTotal, flapMatched int
	for _, tr0 := range a.SyslogAdj {
		if !a.ISISFlaps.InFlap(tr0.Link, tr0.Time) {
			continue
		}
		flapTotal++
		if is.AnyWithin(tr0.Link, tr0.Dir, tr0.Time, w) {
			flapMatched++
		}
	}
	if flapTotal > 0 {
		t3.SyslogFlapMatchedFraction = float64(flapMatched) / float64(flapTotal)
	}
	return t3
}

// Table4 is the failure/downtime accounting after sanitization.
type Table4 struct {
	ISISFailures   int
	SyslogFailures int
	// OverlapFailures counts strictly matched failure pairs.
	OverlapFailures int
	ISISDowntime    time.Duration
	SyslogDowntime  time.Duration
	// OverlapDowntime is the interval-intersection downtime.
	OverlapDowntime time.Duration
	// FalsePositives counts syslog failures with no matching IS-IS
	// failure; FalsePositiveFraction normalizes by syslog failures.
	FalsePositives        int
	FalsePositiveFraction float64
	// Sanitization accounting.
	SyslogSanitize trace.SanitizeCounts
	ISISSanitize   trace.SanitizeCounts
}

// Table4 computes failure counts and downtime for both sources.
func (a *Analysis) Table4() Table4 {
	return a.table4(match.Failures(a.SyslogFailures, a.ISISFailures, a.In.Window), match.GroupByLink(a.ISISFailures))
}

func (a *Analysis) table4(m match.FailureMatch, isisByLink byLink) Table4 {
	t4 := Table4{
		ISISFailures:    len(a.ISISFailures),
		SyslogFailures:  len(a.SyslogFailures),
		OverlapFailures: len(m.Pairs),
		ISISDowntime:    trace.TotalDowntime(a.ISISFailures),
		SyslogDowntime:  trace.TotalDowntime(a.SyslogFailures),
		OverlapDowntime: match.IntersectionDowntime(a.SyslogFailures, isisByLink),
		FalsePositives:  len(m.OnlyA),
		SyslogSanitize:  a.SyslogSanitize.SanitizeCounts,
		ISISSanitize:    a.ISISSanitize.SanitizeCounts,
	}
	if t4.SyslogFailures > 0 {
		t4.FalsePositiveFraction = float64(t4.FalsePositives) / float64(t4.SyslogFailures)
	}
	return t4
}

// MetricSummaries holds the paper's four Table 5 metrics for one
// (class, source) cell, plus a bootstrap confidence interval on the
// duration median (the metric whose small paper differences — 10 s
// vs 12 s — most need an error bar).
type MetricSummaries struct {
	// FailuresPerLink is annualized failures per link.
	FailuresPerLink stats.Summary
	// Duration is failure duration in seconds.
	Duration stats.Summary
	// DurationMedianCI is the 95% bootstrap CI of the duration
	// median.
	DurationMedianCI [2]float64
	// TimeBetween is hours between consecutive failures on a link.
	TimeBetween stats.Summary
	// Downtime is annualized link downtime in hours.
	Downtime stats.Summary
}

// Table5 is the per-class statistical comparison plus the KS
// consistency verdicts of §4.2.
type Table5 struct {
	// Cells[class][source] with source "syslog" or "isis".
	Core, CPE map[string]MetricSummaries
	// KS tests between the two sources per metric, CPE and Core
	// pooled as in the paper's consistency discussion.
	KSFailuresPerLink stats.KSResult
	KSDuration        stats.KSResult
	KSDowntime        stats.KSResult
	// Cramér–von Mises corroboration: CvM integrates over the whole
	// CDF gap rather than keying on its maximum, so agreement with
	// KS makes the consistency verdicts robust.
	CvMFailuresPerLink stats.CvMResult
	CvMDuration        stats.CvMResult
	CvMDowntime        stats.CvMResult
}

// Table5 computes the statistics table.
func (a *Analysis) Table5() Table5 { return table5(a.samples()) }

func table5(samples [2][2]metricSamples) Table5 {
	s, i := samples[0], samples[1]
	t5 := Table5{
		Core: map[string]MetricSummaries{"syslog": s[topo.CoreLink].summaries(), "isis": i[topo.CoreLink].summaries()},
		CPE:  map[string]MetricSummaries{"syslog": s[topo.CPELink].summaries(), "isis": i[topo.CPELink].summaries()},
	}
	// Pooled tests (both classes together); the tests sort their
	// samples, so the classes' order does not matter.
	sFPL, iFPL := slices.Concat(s[0].perLink, s[1].perLink), slices.Concat(i[0].perLink, i[1].perLink)
	sDur, iDur := slices.Concat(s[0].durations, s[1].durations), slices.Concat(i[0].durations, i[1].durations)
	sDown, iDown := slices.Concat(s[0].downtime, s[1].downtime), slices.Concat(i[0].downtime, i[1].downtime)
	t5.KSFailuresPerLink, _ = stats.KSTest(sFPL, iFPL)
	t5.KSDuration, _ = stats.KSTest(sDur, iDur)
	t5.KSDowntime, _ = stats.KSTest(sDown, iDown)
	t5.CvMFailuresPerLink, _ = stats.CvMTest(sFPL, iFPL)
	t5.CvMDuration, _ = stats.CvMTest(sDur, iDur)
	t5.CvMDowntime, _ = stats.CvMTest(sDown, iDown)
	return t5
}

// metricSamples are the four metric sample sets of one source over
// one link class.
type metricSamples struct {
	perLink, durations, between, downtime []float64
}

func index(ts []trace.Transition) *match.TransitionIndex { return match.NewTransitionIndex(ts) }

// byLink is a failure list as match.GroupByLink groups it.
type byLink = map[topo.LinkID][]trace.Failure

// samples derives the metric samples of the syslog failures, then of
// the IS-IS ones, by topo.LinkClass; failures on links the network
// lacks are left out.
func (a *Analysis) samples() (out [2][2]metricSamples) {
	for src, fs := range [2][]trace.Failure{a.SyslogFailures, a.ISISFailures} {
		perLinkCount := make(map[topo.LinkID]int)
		perLinkDown := make(map[topo.LinkID]time.Duration)
		lastEnd := make(map[topo.LinkID]time.Time)
		for _, f := range fs {
			l, ok := a.In.Network.LinkByID(f.Link)
			if !ok {
				continue
			}
			s := &out[src][l.Class]
			perLinkCount[f.Link]++
			perLinkDown[f.Link] += f.Duration()
			s.durations = append(s.durations, f.Duration().Seconds())
			if prev, ok := lastEnd[f.Link]; ok && f.Start.After(prev) {
				s.between = append(s.between, f.Start.Sub(prev).Hours())
			}
			lastEnd[f.Link] = f.End
		}
		// Only links that failed at least once enter the per-link
		// distributions, as in the paper's annualized-per-link metrics.
		for link, n := range perLinkCount {
			l, _ := a.In.Network.LinkByID(link)
			s := &out[src][l.Class]
			s.perLink = append(s.perLink, float64(n)/a.Years)
			s.downtime = append(s.downtime, perLinkDown[link].Hours()/a.Years)
		}
	}
	return out
}

func (s metricSamples) summaries() MetricSummaries {
	var ms MetricSummaries
	ms.FailuresPerLink, _ = stats.Summarize(s.perLink)
	ms.Duration, _ = stats.Summarize(s.durations)
	ms.TimeBetween, _ = stats.Summarize(s.between)
	ms.Downtime, _ = stats.Summarize(s.downtime)
	if lo, hi, err := stats.BootstrapMedianCI(s.durations, 400, 0.05, 1); err == nil {
		ms.DurationMedianCI = [2]float64{lo, hi}
	}
	return ms
}
