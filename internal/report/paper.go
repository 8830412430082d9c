package report

import (
	"fmt"
	"io"
	"sort"
	"time"

	"netfail/internal/core"
	"netfail/internal/match"
)

// PaperValues holds the published numbers used for side-by-side
// comparison in rendered tables (Turner et al., IMC 2013).
var PaperValues = struct {
	Table2 [8]float64 // same order as the rendered rows
	Table3 struct {
		DownNone, DownOne, DownBoth float64
		UpNone, UpOne, UpBoth       float64
	}
	Table4 struct {
		ISIS, Syslog, Overlap                        int
		ISISDowntimeH, SyslogDowntimeH, OverlapDownH int
	}
	Table6 struct {
		LostDown, LostUp, SpurDown, SpurUp, UnkDown, UnkUp int
	}
	Table7 struct {
		ISISEvents, SyslogEvents, InterEvents int
		ISISSites, SyslogSites, InterSites    int
		ISISDays, SyslogDays, InterDays       float64
	}
}{
	Table2: [8]float64{0.82, 0.25, 0.85, 0.23, 0.31, 0.52, 0.34, 0.53},
}

func init() {
	PaperValues.Table3.DownNone, PaperValues.Table3.DownOne, PaperValues.Table3.DownBoth = 0.18, 0.39, 0.43
	PaperValues.Table3.UpNone, PaperValues.Table3.UpOne, PaperValues.Table3.UpBoth = 0.15, 0.48, 0.37
	PaperValues.Table4.ISIS, PaperValues.Table4.Syslog, PaperValues.Table4.Overlap = 11213, 11738, 9298
	PaperValues.Table4.ISISDowntimeH, PaperValues.Table4.SyslogDowntimeH, PaperValues.Table4.OverlapDownH = 3648, 2714, 2331
	PaperValues.Table6.LostDown, PaperValues.Table6.LostUp = 194, 174
	PaperValues.Table6.SpurDown, PaperValues.Table6.SpurUp = 240, 28
	PaperValues.Table6.UnkDown, PaperValues.Table6.UnkUp = 27, 0
	PaperValues.Table7.ISISEvents, PaperValues.Table7.SyslogEvents, PaperValues.Table7.InterEvents = 1401, 1060, 1002
	PaperValues.Table7.ISISSites, PaperValues.Table7.SyslogSites, PaperValues.Table7.InterSites = 74, 67, 66
	PaperValues.Table7.ISISDays, PaperValues.Table7.SyslogDays, PaperValues.Table7.InterDays = 26.3, 22.3, 19.8
}

// RenderTable1 prints the dataset summary.
func RenderTable1(w io.Writer, t1 core.Table1) error {
	t := NewTable("Table 1: Summary of data used in the study", "Parameter", "Value", "Paper")
	t.AddRow("Period", fmt.Sprintf("%s - %s",
		t1.Period.Start.Format("Jan 2, 2006"), t1.Period.End.Format("Jan 2, 2006")),
		"Oct 20, 2010 - Nov 11, 2011")
	t.AddRow("Routers", fmt.Sprintf("%d Core and %d CPE", t1.CoreRouters, t1.CPERouters), "60 Core and 175 CPE")
	t.AddRow("Router Config Files", Num(t1.ConfigFiles), "11,623")
	t.AddRow("IS-IS links", fmt.Sprintf("%d Core and %d CPE", t1.CoreLinks, t1.CPELinks), "84 Core and 215 CPE")
	t.AddRow("Syslog messages", Num(t1.SyslogMessages), "47,371")
	t.AddRow("IS-IS updates", Num(t1.ISISUpdates), "11,095,550")
	t.AddRow("Multi-link adjacency pairs", Num(t1.MultiLinkAdjacencyPairs), "26")
	t.AddRow("Links analyzed", Num(t1.AnalyzedLinks), "")
	return t.Render(w)
}

// RenderTable2 prints the reachability-field matching table.
func RenderTable2(w io.Writer, t2 core.Table2) error {
	t := NewTable("Table 2: % of state transitions matching syslog messages by IS or IP reachability",
		"Syslog Type", "IS reachability", "IP reachability", "Paper (IS/IP)")
	p := PaperValues.Table2
	t.AddRow("IS-IS Down", Pct(t2.ISISDownVsIS), Pct(t2.ISISDownVsIP), fmt.Sprintf("%s / %s", Pct(p[0]), Pct(p[1])))
	t.AddRow("IS-IS Up", Pct(t2.ISISUpVsIS), Pct(t2.ISISUpVsIP), fmt.Sprintf("%s / %s", Pct(p[2]), Pct(p[3])))
	t.AddRow("physical media Down", Pct(t2.PhysDownVsIS), Pct(t2.PhysDownVsIP), fmt.Sprintf("%s / %s", Pct(p[4]), Pct(p[5])))
	t.AddRow("physical media Up", Pct(t2.PhysUpVsIS), Pct(t2.PhysUpVsIP), fmt.Sprintf("%s / %s", Pct(p[6]), Pct(p[7])))
	return t.Render(w)
}

// RenderTable3 prints the None/One/Both accounting.
func RenderTable3(w io.Writer, t3 core.Table3) error {
	t := NewTable("Table 3: IS-IS state transitions by number of matching syslog messages",
		"IS-IS transition", "None", "One", "Both", "Paper (None/One/Both)")
	p := PaperValues.Table3
	row := func(name string, r core.Table3Row, pn, po, pb float64) {
		tot := r.Total()
		cell := func(n int) string {
			if tot == 0 {
				return "0"
			}
			return fmt.Sprintf("%s (%.0f%%)", Num(n), 100*float64(n)/float64(tot))
		}
		t.AddRow(name, cell(r.None), cell(r.One), cell(r.Both),
			fmt.Sprintf("%s/%s/%s", Pct(pn), Pct(po), Pct(pb)))
	}
	row("DOWN", t3.Down, p.DownNone, p.DownOne, p.DownBoth)
	row("UP", t3.Up, p.UpNone, p.UpOne, p.UpBoth)
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "Unmatched transitions during flapping: DOWN %s (paper 67%%), UP %s (paper 61%%)\nSyslog transitions matched during flapping: %s (paper: under half)\n",
		Pct(t3.UnmatchedInFlapDown), Pct(t3.UnmatchedInFlapUp), Pct(t3.SyslogFlapMatchedFraction))
	return err
}

// RenderTable4 prints failure counts and downtime.
func RenderTable4(w io.Writer, t4 core.Table4) error {
	t := NewTable("Table 4: Failures and downtime after sanitization",
		"", "IS-IS", "Syslog", "Overlap", "Paper (IS-IS/Syslog/Overlap)")
	p := PaperValues.Table4
	t.AddRow("Failure Count", Num(t4.ISISFailures), Num(t4.SyslogFailures), Num(t4.OverlapFailures),
		fmt.Sprintf("%s / %s / %s", Num(p.ISIS), Num(p.Syslog), Num(p.Overlap)))
	t.AddRow("Downtime (Hours)", F0(t4.ISISDowntime.Hours()), F0(t4.SyslogDowntime.Hours()), F0(t4.OverlapDowntime.Hours()),
		fmt.Sprintf("%s / %s / %s", Num(p.ISISDowntimeH), Num(p.SyslogDowntimeH), Num(p.OverlapDownH)))
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "Syslog false positives: %s (%s of syslog failures; paper ~21%%)\nLong-failure verification removed %s of spurious downtime across %d failures\n",
		Num(t4.FalsePositives), Pct(t4.FalsePositiveFraction),
		fmtHours(t4.SyslogSanitize.LongRemovedTime), t4.SyslogSanitize.LongRemoved)
	return err
}

// RenderFalsePositives prints the §4.3 false-positive breakdown.
func RenderFalsePositives(w io.Writer, b core.FalsePositiveBreakdown) error {
	t := NewTable("Syslog false positives (§4.3)", "Quantity", "Measured", "Paper")
	t.AddRow("Total false positives", Num(b.Total), "2,440")
	t.AddRow("Short (<= 10 s)", fmt.Sprintf("%s (%s)", Num(b.Short), Pct(b.ShortFraction())), "83%")
	t.AddRow("FP downtime in long remainder", Pct(b.LongDowntimeFraction()), "94%")
	t.AddRow("Long FPs during flapping", Num(b.LongInFlap), "all but 19 of 373")
	t.AddRow("Partial-overlap FP downtime", fmt.Sprintf("%.1f h", b.PartialOverlapDowntime.Hours()), "365.5 h of 383 h")
	t.AddRow("Pure FP downtime", fmt.Sprintf("%.1f h", b.PureDowntime.Hours()), "17.5 h")
	return t.Render(w)
}

// RenderTable5 prints the statistics table with the paper's values.
func RenderTable5(w io.Writer, t5 core.Table5) error {
	t := NewTable("Table 5: Statistics for syslog-inferred and IS-IS listener-reported failures",
		"Statistic", "Core Syslog", "Core IS-IS", "CPE Syslog", "CPE IS-IS", "Paper (same order)")
	type row struct {
		name  string
		pick  func(core.MetricSummaries) [3]float64
		paper string
	}
	rows := []row{
		{"Failures/link (med/avg/95)", func(m core.MetricSummaries) [3]float64 {
			return [3]float64{m.FailuresPerLink.Median, m.FailuresPerLink.Mean, m.FailuresPerLink.P95}
		}, "5.7/14.2/46 | 6.6/16.1/46 | 11.3/49/249 | 12.3/45/253"},
		{"Duration s (med/avg/95)", func(m core.MetricSummaries) [3]float64 {
			return [3]float64{m.Duration.Median, m.Duration.Mean, m.Duration.P95}
		}, "52/1078/6318 | 42/1527/6683 | 10/814/665 | 12/1140/825"},
		{"Between h (med/avg/95)", func(m core.MetricSummaries) [3]float64 {
			return [3]float64{m.TimeBetween.Median, m.TimeBetween.Mean, m.TimeBetween.P95}
		}, "0.2/343/2014 | 0.2/347/2147 | 0.01/116/673 | 0.03/136/845"},
		{"Downtime h/yr (med/avg/95)", func(m core.MetricSummaries) [3]float64 {
			return [3]float64{m.Downtime.Median, m.Downtime.Mean, m.Downtime.P95}
		}, "0.6/4/24 | 0.8/7/26 | 1.9/11/49 | 2.4/14/51"},
	}
	cells := []core.MetricSummaries{t5.Core["syslog"], t5.Core["isis"], t5.CPE["syslog"], t5.CPE["isis"]}
	for _, r := range rows {
		out := make([]string, 0, 6)
		out = append(out, r.name)
		for _, c := range cells {
			v := r.pick(c)
			out = append(out, fmt.Sprintf("%.1f/%.0f/%.0f", v[0], v[1], v[2]))
		}
		out = append(out, r.paper)
		t.AddRow(out...)
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
		t5.KSFailuresPerLink.D, t5.KSFailuresPerLink.PValue, verdict(t5.KSFailuresPerLink.Consistent(0.01)),
		t5.KSDuration.D, t5.KSDuration.PValue, verdict(t5.KSDuration.Consistent(0.01)),
		t5.KSDowntime.D, t5.KSDowntime.PValue, verdict(t5.KSDowntime.Consistent(0.01))); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "CvM corroboration: failures/link p=%.3f (%s) | duration p=%.3f (%s) | downtime p=%.3f (%s)\nPaper verdicts: failures/link and downtime consistent, duration NOT consistent\n",
		t5.CvMFailuresPerLink.PValue, verdict(t5.CvMFailuresPerLink.Consistent(0.01)),
		t5.CvMDuration.PValue, verdict(t5.CvMDuration.Consistent(0.01)),
		t5.CvMDowntime.PValue, verdict(t5.CvMDowntime.Consistent(0.01)))
	return err
}

func verdict(consistent bool) string {
	if consistent {
		return "consistent"
	}
	return "NOT consistent"
}

// RenderTable6 prints the ambiguous-state-change classification.
func RenderTable6(w io.Writer, t6 core.Table6) error {
	t := NewTable("Table 6: Ambiguous state changes by cause", "Cause", "Down", "Up", "Paper (Down/Up)")
	p := PaperValues.Table6
	t.AddRow("Lost Message", Num(t6.LostDown), Num(t6.LostUp), fmt.Sprintf("%d / %d", p.LostDown, p.LostUp))
	t.AddRow("Spurious Retransmission", Num(t6.SpuriousDown), Num(t6.SpuriousUp), fmt.Sprintf("%d / %d", p.SpurDown, p.SpurUp))
	t.AddRow("Unknown", Num(t6.UnknownDown), Num(t6.UnknownUp), fmt.Sprintf("%d / %d", p.UnkDown, p.UnkUp))
	t.AddRow("Total", Num(t6.TotalDown()), Num(t6.TotalUp()), "461 / 202")
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "Ambiguous periods cover %s of the link-weighted measurement period (paper 7.8%%)\nSpurious Down messages reporting the same failure: %s (paper 99%%)\n",
		Pct(t6.AmbiguousFractionOfPeriod), Pct(t6.SpuriousSameFailureDown))
	return err
}

// RenderTable7 prints the isolation comparison.
func RenderTable7(w io.Writer, t7 core.Table7) error {
	t := NewTable("Table 7: Customer-isolating failures",
		"Data Source", "Isolating Events", "Sites Impacted", "Downtime (days)", "Paper")
	p := PaperValues.Table7
	t.AddRow("IS-IS", Num(t7.ISISEvents), Num(t7.ISISSites), F1(t7.ISISDowntime.Hours()/24),
		fmt.Sprintf("%d / %d / %.1f", p.ISISEvents, p.ISISSites, p.ISISDays))
	t.AddRow("Syslog", Num(t7.SyslogEvents), Num(t7.SyslogSites), F1(t7.SyslogDowntime.Hours()/24),
		fmt.Sprintf("%d / %d / %.1f", p.SyslogEvents, p.SyslogSites, p.SyslogDays))
	t.AddRow("Intersection", Num(t7.IntersectionEvents), Num(t7.IntersectionSites), F1(t7.IntersectionDowntime.Hours()/24),
		fmt.Sprintf("%d / %d / %.1f", p.InterEvents, p.InterSites, p.InterDays))
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "Syslog-only events: %d (%d with no IS-IS failure on the links, %d intersecting; paper: 58 = 12 + 46)\nIS-IS-only events: %d totaling %.1f days (%d partial syslog match, %d syslog saw failures, %d unrelated; paper: 399 = 99 partial + 82 single-message + 218 unrelated, 6.5 days)\n",
		t7.SyslogOnlyEvents, t7.SyslogOnlyNoISISFailure, t7.SyslogOnlyIntersecting,
		t7.ISISOnlyEvents, t7.ISISOnlyDowntime.Hours()/24,
		t7.ISISOnlyPartialMatch, t7.ISISOnlySyslogSawFailures, t7.ISISOnlyUnrelated)
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

// RenderPolicies prints the ambiguity-policy ablation.
func RenderPolicies(w io.Writer, rows []core.DowntimePolicy) error {
	t := NewTable("Ambiguity-policy ablation (§4.3; paper recommends hold-previous)",
		"Policy", "Syslog downtime (h)", "|error| vs IS-IS (h)")
	for _, r := range rows {
		t.AddRow(r.Policy.String(), F0(r.SyslogDowntime.Hours()), F0(r.AbsError.Hours()))
	}
	return t.Render(w)
}

func fmtHours(d time.Duration) string {
	return fmt.Sprintf("%.0f h", d.Hours())
}
