package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"netfail/internal/core"
)

// Markdown renders an EXPERIMENTS.md-style reproduction report:
// every headline number against the paper's published value with an
// automatically computed verdict, so reproduction quality regresses
// visibly when the models drift.
//
// Verdicts: "ok" when a fraction is within ±0.15 absolute (or a count
// within 2× either way), "partial" within ±0.3 / 3×, "off" beyond;
// Table 5's, whether consistent agrees with the paper.
func Markdown(w io.Writer, t *core.Tables) error {
	mw := &mdWriter{w: w}
	t1, t2, t3, t4, t5, t6, t7 := t.Table1, t.Table2, t.Table3, t.Table4, t.Table5, t.Table6, t.Table7
	// frac, count and downUp add a measured value beside the paper's.
	frac := func(cell string, m, p float64) { mw.row(cell, Pct(m), Pct(p), fracVerdict(m, p)) }
	count := func(cell string, m, p int) { mw.row(cell, Num(m), Num(p), countVerdict(float64(m), float64(p))) }
	downUp := func(cell string, d, u, pd, pu int) {
		mw.row(cell, fmt.Sprintf("%d / %d", d, u), fmt.Sprintf("%d / %d", pd, pu), countVerdict(float64(d+u), float64(pd+pu)))
	}
	mw.line("# Reproduction report")
	mw.line("")
	mw.line("Generated by `netfail-analyze -markdown`; paper values from Turner et al., IMC 2013.")
	mw.line("")

	mw.line("## Table 1 — dataset summary")
	mw.line("")
	mw.table("Parameter", "Measured", "Paper", "Verdict")
	count("Core routers", t1.CoreRouters, 60)
	count("CPE routers", t1.CPERouters, 175)
	count("Core links", t1.CoreLinks, 84)
	count("CPE links", t1.CPELinks, 215)
	count("Config files", t1.ConfigFiles, 11623)
	count("Syslog messages", t1.SyslogMessages, 47371)
	count("IS-IS updates", t1.ISISUpdates, 11095550)
	count("Multi-link pairs", t1.MultiLinkAdjacencyPairs, 26)
	mw.line("")

	p2 := PaperValues.Table2
	mw.line("## Table 2 — reachability vs syslog matching")
	mw.line("")
	mw.table("Cell", "Measured", "Paper", "Verdict")
	frac("IS-IS Down vs IS reach", t2.ISISDownVsIS, p2[0])
	frac("IS-IS Down vs IP reach", t2.ISISDownVsIP, p2[1])
	frac("IS-IS Up vs IS reach", t2.ISISUpVsIS, p2[2])
	frac("IS-IS Up vs IP reach", t2.ISISUpVsIP, p2[3])
	frac("physical Down vs IS reach", t2.PhysDownVsIS, p2[4])
	frac("physical Down vs IP reach", t2.PhysDownVsIP, p2[5])
	frac("physical Up vs IS reach", t2.PhysUpVsIS, p2[6])
	frac("physical Up vs IP reach", t2.PhysUpVsIP, p2[7])
	mw.line("")

	p3 := PaperValues.Table3
	mw.line("## Table 3 — transitions by matching messages")
	mw.line("")
	mw.table("Cell", "Measured", "Paper", "Verdict")
	dTot, uTot := float64(max(t3.Down.Total(), 1)), float64(max(t3.Up.Total(), 1))
	frac("DOWN none", float64(t3.Down.None)/dTot, p3.DownNone)
	frac("DOWN one", float64(t3.Down.One)/dTot, p3.DownOne)
	frac("DOWN both", float64(t3.Down.Both)/dTot, p3.DownBoth)
	frac("UP none", float64(t3.Up.None)/uTot, p3.UpNone)
	frac("UP one", float64(t3.Up.One)/uTot, p3.UpOne)
	frac("UP both", float64(t3.Up.Both)/uTot, p3.UpBoth)
	frac("Unmatched in flap (DOWN)", t3.UnmatchedInFlapDown, 0.67)
	frac("Unmatched in flap (UP)", t3.UnmatchedInFlapUp, 0.61)
	mw.line("")

	p4 := PaperValues.Table4
	mw.line("## Table 4 — failures and downtime")
	mw.line("")
	mw.table("Cell", "Measured", "Paper", "Verdict")
	count("IS-IS failures", t4.ISISFailures, p4.ISIS)
	count("Syslog failures", t4.SyslogFailures, p4.Syslog)
	count("Overlap", t4.OverlapFailures, p4.Overlap)
	mw.row("IS-IS downtime (h)", F0(t4.ISISDowntime.Hours()), Num(p4.ISISDowntimeH), countVerdict(t4.ISISDowntime.Hours(), float64(p4.ISISDowntimeH)))
	mw.row("Syslog downtime (h)", F0(t4.SyslogDowntime.Hours()), Num(p4.SyslogDowntimeH), countVerdict(t4.SyslogDowntime.Hours(), float64(p4.SyslogDowntimeH)))
	deficit := 1.0
	if t4.ISISDowntime > 0 {
		deficit -= float64(t4.SyslogDowntime) / float64(t4.ISISDowntime)
	}
	frac("Syslog downtime deficit", deficit, 0.256)
	frac("False-positive fraction", t4.FalsePositiveFraction, 0.21)
	mw.line("")

	mw.line("## Table 5 — consistency verdicts")
	mw.line("")
	mw.table("Metric", "KS p", "CvM p", "Verdict (paper: consistent except duration)")
	mw.row("failures/link", f3(t5.KSFailuresPerLink.PValue), f3(t5.CvMFailuresPerLink.PValue),
		boolVerdict(consistent(t5.KSFailuresPerLink, t5.CvMFailuresPerLink)))
	mw.row("duration", f3(t5.KSDuration.PValue), f3(t5.CvMDuration.PValue),
		boolVerdict(!consistent(t5.KSDuration, t5.CvMDuration)))
	mw.row("downtime", f3(t5.KSDowntime.PValue), f3(t5.CvMDowntime.PValue),
		boolVerdict(consistent(t5.KSDowntime, t5.CvMDowntime)))
	mw.line("")

	p6 := PaperValues.Table6
	mw.line("## Table 6 — ambiguous state changes")
	mw.line("")
	mw.table("Cell", "Measured", "Paper", "Verdict")
	downUp("Lost (down/up)", t6.LostDown, t6.LostUp, p6.LostDown, p6.LostUp)
	downUp("Spurious (down/up)", t6.SpuriousDown, t6.SpuriousUp, p6.SpurDown, p6.SpurUp)
	downUp("Totals (down/up)", t6.TotalDown(), t6.TotalUp(), 461, 202)
	mw.line("")

	p7 := PaperValues.Table7
	mw.line("## Table 7 — customer isolation")
	mw.line("")
	mw.table("Cell", "Measured", "Paper", "Verdict")
	count("IS-IS events", t7.ISISEvents, p7.ISISEvents)
	count("Syslog events", t7.SyslogEvents, p7.SyslogEvents)
	count("Intersection events", t7.IntersectionEvents, p7.InterEvents)
	mw.row("IS-IS downtime (days)", F1(t7.ISISDowntime.Hours()/24), F1(p7.ISISDays), countVerdict(t7.ISISDowntime.Hours()/24, p7.ISISDays))
	mw.row("Syslog downtime (days)", F1(t7.SyslogDowntime.Hours()/24), F1(p7.SyslogDays), countVerdict(t7.SyslogDowntime.Hours()/24, p7.SyslogDays))
	mw.line("")

	mw.line("## Window sweep (knee at ten seconds)")
	mw.line("")
	mw.table("Window", "Downtime matched", "Failures matched")
	for _, p := range t.Knee {
		mw.row(p.Window.String(), Pct(p.MatchedDowntimeFraction), Pct(p.MatchedFailureFraction))
	}
	mw.line("")
	return mw.err
}

// mdWriter accumulates the first write error.
type mdWriter struct {
	w   io.Writer
	err error
}

func (m *mdWriter) line(s string) {
	if m.err != nil {
		return
	}
	_, m.err = fmt.Fprintln(m.w, s)
}

func (m *mdWriter) table(headers ...string) {
	m.row(headers...)
	m.line("|" + strings.Repeat("---|", len(headers)))
}

func (m *mdWriter) row(cells ...string) {
	row := "|"
	for _, c := range cells {
		row += " " + c + " |"
	}
	m.line(row)
}

// fracVerdict scores a measured fraction against a paper fraction.
func fracVerdict(measured, paper float64) string {
	d := math.Abs(measured - paper)
	switch {
	case d <= 0.15:
		return "ok"
	case d <= 0.30:
		return "partial"
	default:
		return "off"
	}
}

// countVerdict scores counts/durations by ratio.
func countVerdict(measured, paper float64) string {
	if paper == 0 {
		if measured == 0 {
			return "ok"
		}
		return "off"
	}
	r := measured / paper
	switch {
	case r >= 0.5 && r <= 2:
		return "ok"
	case r >= 1.0/3 && r <= 3:
		return "partial"
	default:
		return "off"
	}
}

func boolVerdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "off"
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
