package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"netfail/internal/core"
	"netfail/internal/match"
	"netfail/internal/stats"
)

// RenderTable1 prints the dataset summary.
func RenderTable1(w io.Writer, t1 core.Table1) error {
	t := NewTable("Table 1: Summary of data used in the study", "Parameter", "Value", "Paper")
	t.AddRow("Period", fmt.Sprintf("%s - %s",
		t1.Period.Start.Format("Jan 2, 2006"), t1.Period.End.Format("Jan 2, 2006")),
		"Oct 20, 2010 - Nov 11, 2011")
	t.AddRow("Routers", fmt.Sprintf("%d Core and %d CPE", t1.CoreRouters, t1.CPERouters),
		fmt.Sprintf("%.0f Core and %.0f CPE", paper("t1.core-routers"), paper("t1.cpe-routers")))
	t.AddRow("Router Config Files", Num(t1.ConfigFiles), paperNum("t1.config-files"))
	t.AddRow("IS-IS links", fmt.Sprintf("%d Core and %d CPE", t1.CoreLinks, t1.CPELinks),
		fmt.Sprintf("%.0f Core and %.0f CPE", paper("t1.core-links"), paper("t1.cpe-links")))
	t.AddRow("Syslog messages", Num(t1.SyslogMessages), paperNum("t1.syslog-messages"))
	t.AddRow("IS-IS updates", Num(t1.ISISUpdates), paperNum("t1.isis-updates"))
	t.AddRow("Multi-link adjacency pairs", Num(t1.MultiLinkAdjacencyPairs), paperNum("t1.multilink-pairs"))
	t.AddRow("Links analyzed", Num(t1.AnalyzedLinks), "")
	return t.Render(w)
}

// RenderTable2 prints the reachability-field matching table.
func RenderTable2(w io.Writer, t2 core.Table2) error {
	t := NewTable("Table 2: % of state transitions matching syslog messages by IS or IP reachability",
		"Syslog Type", "IS reachability", "IP reachability", "Paper (IS/IP)")
	p := func(row string) string {
		return Pct(paper("t2."+row+"-is")) + " / " + Pct(paper("t2."+row+"-ip"))
	}
	t.AddRow("IS-IS Down", Pct(t2.ISISDownVsIS), Pct(t2.ISISDownVsIP), p("isis-down"))
	t.AddRow("IS-IS Up", Pct(t2.ISISUpVsIS), Pct(t2.ISISUpVsIP), p("isis-up"))
	t.AddRow("physical media Down", Pct(t2.PhysDownVsIS), Pct(t2.PhysDownVsIP), p("phys-down"))
	t.AddRow("physical media Up", Pct(t2.PhysUpVsIS), Pct(t2.PhysUpVsIP), p("phys-up"))
	return t.Render(w)
}

// RenderTable3 prints the None/One/Both accounting.
func RenderTable3(w io.Writer, t3 core.Table3) error {
	t := NewTable("Table 3: IS-IS state transitions by number of matching syslog messages",
		"IS-IS transition", "None", "One", "Both", "Paper (None/One/Both)")
	row := func(name string, r core.Table3Row, dir string) {
		tot := r.Total()
		cell := func(n int) string {
			if tot == 0 {
				return "0"
			}
			return fmt.Sprintf("%s (%.0f%%)", Num(n), 100*float64(n)/float64(tot))
		}
		t.AddRow(name, cell(r.None), cell(r.One), cell(r.Both),
			Pct(paper("t3."+dir+"-none"))+"/"+Pct(paper("t3."+dir+"-one"))+"/"+Pct(paper("t3."+dir+"-both")))
	}
	row("DOWN", t3.Down, "down")
	row("UP", t3.Up, "up")
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "Unmatched transitions during flapping: DOWN %s (paper %s), UP %s (paper %s)\nSyslog transitions matched during flapping: %s (paper: under half)\n",
		Pct(t3.UnmatchedInFlapDown), Pct(paper("t3.flap-unmatched-down")), Pct(t3.UnmatchedInFlapUp), Pct(paper("t3.flap-unmatched-up")),
		Pct(t3.SyslogFlapMatchedFraction))
	return err
}

// RenderTable4 prints failure counts and downtime.
func RenderTable4(w io.Writer, t4 core.Table4) error {
	t := NewTable("Table 4: Failures and downtime after sanitization",
		"", "IS-IS", "Syslog", "Overlap", "Paper (IS-IS/Syslog/Overlap)")
	p := func(what string) string {
		return paperNum("t4.isis-"+what) + " / " + paperNum("t4.syslog-"+what) + " / " + paperNum("t4.overlap-"+what)
	}
	t.AddRow("Failure Count", Num(t4.ISISFailures), Num(t4.SyslogFailures), Num(t4.OverlapFailures), p("failures"))
	t.AddRow("Downtime (Hours)", hours(t4.ISISDowntime), hours(t4.SyslogDowntime), hours(t4.OverlapDowntime), p("downtime"))
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "Syslog false positives: %s (%s of syslog failures; paper ~%s)\nLong-failure verification removed %.0f h of spurious downtime across %d failures\n",
		Num(t4.FalsePositives), Pct(t4.FalsePositiveFraction), Pct(paper("t4.fp-share")),
		t4.SyslogSanitize.LongRemovedTime.Hours(), t4.SyslogSanitize.LongRemoved)
	return err
}

// RenderFalsePositives prints the §4.3 false-positive breakdown.
func RenderFalsePositives(w io.Writer, b core.FalsePositiveBreakdown) error {
	t := NewTable("Syslog false positives (§4.3)", "Quantity", "Measured", "Paper")
	t.AddRow("Total false positives", Num(b.Total), paperNum("fp.total"))
	t.AddRow("Short (<= 10 s)", fmt.Sprintf("%s (%s)", Num(b.Short), Pct(b.ShortFraction())), Pct(paper("fp.short-share")))
	t.AddRow("FP downtime in long remainder", Pct(b.LongDowntimeFraction()), Pct(paper("fp.long-downtime-share")))
	t.AddRow("Long FPs during flapping", Num(b.LongInFlap), fmt.Sprintf("all but %d of %d", longFPsOutsideFlap, longFPs))
	t.AddRow("Partial-overlap FP downtime", fmt.Sprintf("%.1f h", b.PartialOverlapDowntime.Hours()),
		fmt.Sprintf("%.1f h of %d h", partialFPDowntimeH, fpDowntimeH))
	t.AddRow("Pure FP downtime", fmt.Sprintf("%.1f h", b.PureDowntime.Hours()), "17.5 h")
	return t.Render(w)
}

// RenderTable5 prints the statistics table with the paper's values.
func RenderTable5(w io.Writer, t5 core.Table5) error {
	t := NewTable("Table 5: Statistics for syslog-inferred and IS-IS listener-reported failures",
		"Statistic", "Core Syslog", "Core IS-IS", "CPE Syslog", "CPE IS-IS", "Paper (same order)")
	// The paper's medians come from the scorecard; its means and 95th
	// percentiles are quoted, not scored.
	rows := []struct {
		name, paper string
		pick        func(core.MetricSummaries) stats.Summary
	}{
		{"Failures/link (med/avg/95)", paperMedians("fpl", "%g/14.2/46 | %g/16.1/46 | %g/49/249 | %g/45/253"),
			func(m core.MetricSummaries) stats.Summary { return m.FailuresPerLink }},
		{"Duration s (med/avg/95)", paperMedians("dur", "%g/1078/6318 | %g/1527/6683 | %g/814/665 | %g/1140/825"),
			func(m core.MetricSummaries) stats.Summary { return m.Duration }},
		{"Between h (med/avg/95)", "0.2/343/2014 | 0.2/347/2147 | 0.01/116/673 | 0.03/136/845",
			func(m core.MetricSummaries) stats.Summary { return m.TimeBetween }},
		{"Downtime h/yr (med/avg/95)", paperMedians("down", "%g/4/24 | %g/7/26 | %g/11/49 | %g/14/51"),
			func(m core.MetricSummaries) stats.Summary { return m.Downtime }},
	}
	cells := []core.MetricSummaries{t5.Core["syslog"], t5.Core["isis"], t5.CPE["syslog"], t5.CPE["isis"]}
	for _, r := range rows {
		out := []string{r.name}
		for _, c := range cells {
			v := r.pick(c)
			out = append(out, fmt.Sprintf("%.1f/%.0f/%.0f", v.Median, v.Mean, v.P95))
		}
		t.AddRow(append(out, r.paper)...)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "Duration median 95%% bootstrap CI: Core syslog [%.0f, %.0f] / IS-IS [%.0f, %.0f] | CPE syslog [%.0f, %.0f] / IS-IS [%.0f, %.0f] (seconds)\n",
		t5.Core["syslog"].DurationMedianCI[0], t5.Core["syslog"].DurationMedianCI[1],
		t5.Core["isis"].DurationMedianCI[0], t5.Core["isis"].DurationMedianCI[1],
		t5.CPE["syslog"].DurationMedianCI[0], t5.CPE["syslog"].DurationMedianCI[1],
		t5.CPE["isis"].DurationMedianCI[0], t5.CPE["isis"].DurationMedianCI[1]); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "KS tests (pooled): failures/link D=%.3f p=%.3f (%s) | duration D=%.3f p=%.3f (%s) | downtime D=%.3f p=%.3f (%s)\n",
		t5.KSFailuresPerLink.D, t5.KSFailuresPerLink.PValue, verdict(t5.KSFailuresPerLink.Consistent(alpha)),
		t5.KSDuration.D, t5.KSDuration.PValue, verdict(t5.KSDuration.Consistent(alpha)),
		t5.KSDowntime.D, t5.KSDowntime.PValue, verdict(t5.KSDowntime.Consistent(alpha))); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "CvM corroboration: failures/link p=%.3f (%s) | duration p=%.3f (%s) | downtime p=%.3f (%s)\nPaper verdicts: failures/link and downtime consistent, duration NOT consistent\n",
		t5.CvMFailuresPerLink.PValue, verdict(t5.CvMFailuresPerLink.Consistent(alpha)),
		t5.CvMDuration.PValue, verdict(t5.CvMDuration.Consistent(alpha)),
		t5.CvMDowntime.PValue, verdict(t5.CvMDowntime.Consistent(alpha)))
	return err
}

// alpha is every Table 5 test's level, the text report's and the
// Consistent rule's.
const alpha = 0.01

// paperMedians fills format's four median verbs with the paper's
// Table 5 medians of metric, Core then CPE, syslog then IS-IS.
func paperMedians(metric, format string) string {
	return fmt.Sprintf(format, paper("t5.core-syslog-"+metric), paper("t5.core-isis-"+metric),
		paper("t5.cpe-syslog-"+metric), paper("t5.cpe-isis-"+metric))
}

// paperNum is the paper count of row id as the paper prints it.
func paperNum(id string) string { return Num(int(paper(id))) }

func verdict(consistent bool) string {
	if consistent {
		return "consistent"
	}
	return "NOT consistent"
}

// RenderTable6 prints the ambiguous-state-change classification.
func RenderTable6(w io.Writer, t6 core.Table6) error {
	t := NewTable("Table 6: Ambiguous state changes by cause", "Cause", "Down", "Up", "Paper (Down/Up)")
	p := func(cause string) string { return paperNum("t6."+cause+"-down") + " / " + paperNum("t6."+cause+"-up") }
	t.AddRow("Lost Message", Num(t6.LostDown), Num(t6.LostUp), p("lost"))
	t.AddRow("Spurious Retransmission", Num(t6.SpuriousDown), Num(t6.SpuriousUp), p("spurious"))
	t.AddRow("Unknown", Num(t6.UnknownDown), Num(t6.UnknownUp), p("unknown"))
	t.AddRow("Total", Num(t6.TotalDown()), Num(t6.TotalUp()), p("total"))
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "Ambiguous periods cover %s of the link-weighted measurement period (paper %.1f%%)\nSpurious Down messages reporting the same failure: %s (paper %s)\n",
		Pct(t6.AmbiguousFractionOfPeriod), 100*paper("t6.ambiguous-share"), Pct(t6.SpuriousSameFailureDown), Pct(paper("t6.spurious-same-failure")))
	return err
}

// RenderTable7 prints the isolation comparison.
func RenderTable7(w io.Writer, t7 core.Table7) error {
	t := NewTable("Table 7: Customer-isolating failures",
		"Data Source", "Isolating Events", "Sites Impacted", "Downtime (days)", "Paper")
	p := func(src string) string {
		return fmt.Sprintf("%.0f / %.0f / %.1f", paper("t7."+src+"-events"), paper("t7."+src+"-sites"), paper("t7."+src+"-days"))
	}
	t.AddRow("IS-IS", Num(t7.ISISEvents), Num(t7.ISISSites), F1(t7.ISISDowntime.Hours()/24), p("isis"))
	t.AddRow("Syslog", Num(t7.SyslogEvents), Num(t7.SyslogSites), F1(t7.SyslogDowntime.Hours()/24), p("syslog"))
	t.AddRow("Intersection", Num(t7.IntersectionEvents), Num(t7.IntersectionSites), F1(t7.IntersectionDowntime.Hours()/24), p("inter"))
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "Syslog-only events: %d (%d with no IS-IS failure on the links, %d intersecting; paper: %.0f = 12 + 46)\nIS-IS-only events: %d totaling %.1f days (%d partial syslog match, %d syslog saw failures, %d unrelated; paper: %.0f = 99 partial + 82 single-message + 218 unrelated, %.1f days)\n",
		t7.SyslogOnlyEvents, t7.SyslogOnlyNoISISFailure, t7.SyslogOnlyIntersecting, paper("t7.syslog-only"),
		t7.ISISOnlyEvents, t7.ISISOnlyDowntime.Hours()/24,
		t7.ISISOnlyPartialMatch, t7.ISISOnlySyslogSawFailures, t7.ISISOnlyUnrelated, paper("t7.isis-only"), paper("t7.isis-only-days"))
	return err
}

// RenderFigure1 prints the three CPE CDFs as tab-separated series
// ready for plotting.
func RenderFigure1(w io.Writer, fig core.Figure1) error {
	sections := []struct {
		name string
		cdfs [2]core.CDF
		unit string
	}{
		{"Figure 1a: CDF of failure duration (CPE links)", fig.FailureDuration, "seconds"},
		{"Figure 1b: CDF of annualized link downtime (CPE links)", fig.LinkDowntime, "hours/year"},
		{"Figure 1c: CDF of time between failures (CPE links)", fig.TimeBetween, "hours"},
	}
	for _, s := range sections {
		if _, err := fmt.Fprintf(w, "# %s (x in %s)\n# x\tF_syslog\tF_isis\n", s.name, s.unit); err != nil {
			return err
		}
		if err := renderCDFPair(w, s.cdfs); err != nil {
			return err
		}
	}
	return nil
}

// renderCDFPair merges two CDFs onto a common grid of their x values,
// downsampled to at most 200 points per curve.
func renderCDFPair(w io.Writer, cdfs [2]core.CDF) error {
	xs := mergeGrid(cdfs[0].X, cdfs[1].X, 200)
	for _, x := range xs {
		y0 := cdfAt(cdfs[0], x)
		y1 := cdfAt(cdfs[1], x)
		if _, err := fmt.Fprintf(w, "%g\t%.4f\t%.4f\n", x, y0, y1); err != nil {
			return err
		}
	}
	return nil
}

// mergeGrid merges two ascending sequences into their distinct values,
// thinned to maxPoints by uniform index sampling.
func mergeGrid(a, b []float64, maxPoints int) []float64 {
	dedup := make([]float64, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		var v float64
		if len(b) == 0 || len(a) > 0 && a[0] <= b[0] {
			v, a = a[0], a[1:]
		} else {
			v, b = b[0], b[1:]
		}
		if len(dedup) == 0 || v != dedup[len(dedup)-1] {
			dedup = append(dedup, v)
		}
	}
	if len(dedup) <= maxPoints {
		return dedup
	}
	out := make([]float64, 0, maxPoints)
	step := float64(len(dedup)-1) / float64(maxPoints-1)
	for i := 0; i < maxPoints; i++ {
		out = append(out, dedup[int(float64(i)*step)])
	}
	return out
}

// cdfAt returns the curve's value at x: the Y of the last X at or
// below it, or 0.
func cdfAt(c core.CDF, x float64) float64 {
	if i := sort.Search(len(c.X), func(i int) bool { return c.X[i] > x }); i > 0 {
		return c.Y[i-1]
	}
	return 0
}

// RenderKnee prints the window-size sweep behind the paper's choice
// of the ten-second matching window.
func RenderKnee(w io.Writer, pts []match.WindowPoint) error {
	t := NewTable("Window-size sweep (the 'knee at ten seconds' of §3.4)",
		"Window", "% downtime matched", "% failures matched")
	for _, p := range pts {
		t.AddRow(p.Window.String(), Pct(p.MatchedDowntimeFraction), Pct(p.MatchedFailureFraction))
	}
	return t.Render(w)
}

// hours prints a downtime in whole hours with thousands separators,
// as the scorecard's Hours unit does.
func hours(d time.Duration) string { return Num(int(math.Round(d.Hours()))) }

// RenderPolicies prints the ambiguity-policy ablation.
func RenderPolicies(w io.Writer, rows []core.DowntimePolicy) error {
	t := NewTable("Ambiguity-policy ablation (§4.3; paper recommends hold-previous)",
		"Policy", "Syslog downtime (h)", "|error| vs IS-IS (h)")
	for _, r := range rows {
		t.AddRow(r.Policy.String(), hours(r.SyslogDowntime), hours(r.AbsError))
	}
	return t.Render(w)
}
