package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"netfail/internal/listener"
	"netfail/internal/match"
	"netfail/internal/netsim"
	"netfail/internal/tickets"
	"netfail/internal/trace"
)

// pipeline runs the full analysis over a simulated campaign: the
// integration path every table test shares.
func pipeline(t testing.TB, cfg netsim.Config) (*netsim.Campaign, *Analysis) {
	t.Helper()
	camp, err := netsim.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := listener.New(camp.Network)
	for _, c := range camp.LSPLog {
		if err := l.Process(c.Time, c.Data); err != nil {
			t.Fatal(err)
		}
	}
	res := l.Results()

	var truth []trace.Failure
	for _, f := range camp.GroundTruth {
		truth = append(truth, trace.Failure{Link: f.Link, Start: f.Start, End: f.End})
	}
	tix := tickets.NewIndex(tickets.Generate(cfg.Seed+1, truth, tickets.DefaultParams()))

	a, err := Analyze(context.Background(), Input{
		Network:         camp.Network,
		Customers:       camp.Network.Customers,
		Syslog:          camp.Syslog,
		ISTransitions:   res.ISTransitions,
		IPTransitions:   res.IPTransitions,
		Start:           camp.Config.Start,
		End:             camp.Config.End,
		ListenerOffline: camp.ListenerOffline,
		Tickets:         tix,
	})
	if err != nil {
		t.Fatal(err)
	}
	return camp, a
}

var (
	campOnce sync.Once
	campFull *netsim.Campaign
	aFull    *Analysis
)

// fullStudy runs the 13-month CENIC-scale campaign once per test
// binary; the table tests share it.
func fullStudy(t testing.TB) (*netsim.Campaign, *Analysis) {
	campOnce.Do(func() {
		campFull, aFull = pipeline(t, netsim.Config{Seed: 1})
	})
	if campFull == nil || aFull == nil {
		t.Fatal("full study pipeline failed earlier")
	}
	return campFull, aFull
}

func TestStudyScaleShape(t *testing.T) {
	camp, a := fullStudy(t)
	t4 := a.Table4()
	t.Logf("ground truth failures: %d", len(camp.GroundTruth))
	t.Logf("IS-IS transitions: %d (IS) / %d (IP)", len(a.ISReach), len(a.IPReach))
	t.Logf("syslog messages: %d (adj %d, phys %d)", len(camp.Syslog), a.Traces.AdjMessages, a.Traces.PhysMessages)
	t.Logf("Table 4: isis=%d syslog=%d overlap=%d | downtime isis=%.0fh syslog=%.0fh overlap=%.0fh | FP=%d (%.0f%%)",
		t4.ISISFailures, t4.SyslogFailures, t4.OverlapFailures,
		t4.ISISDowntime.Hours(), t4.SyslogDowntime.Hours(), t4.OverlapDowntime.Hours(),
		t4.FalsePositives, 100*t4.FalsePositiveFraction)

	// Diagnostics: decompose unmatched IS-IS failures.
	m := match.Failures(a.ISISFailures, a.SyslogFailures, a.In.Window)
	sByLink := match.GroupByLink(a.SyslogFailures)
	partial, invisible := 0, 0
	var partialDown, invisibleDown time.Duration
	for _, i := range m.OnlyA {
		f := a.ISISFailures[i]
		if match.Intersects(f, sByLink) {
			partial++
			partialDown += f.Duration()
		} else {
			invisible++
			invisibleDown += f.Duration()
		}
	}
	t.Logf("IS-IS-only failures: %d partial (%.0fh), %d invisible (%.0fh)",
		partial, partialDown.Hours(), invisible, invisibleDown.Hours())

	// Scale: the paper records 11,213 IS-IS failures over 13 months.
	// Within a factor of two keeps the statistics meaningful.
	if t4.ISISFailures < 5000 || t4.ISISFailures > 25000 {
		t.Errorf("IS-IS failures = %d, want paper-scale (~11,000)", t4.ISISFailures)
	}
	// Syslog reports more failures but less downtime (§4.2).
	if t4.SyslogFailures <= t4.ISISFailures*95/100 {
		t.Errorf("syslog failures (%d) should be at or above IS-IS (%d)", t4.SyslogFailures, t4.ISISFailures)
	}
	if t4.SyslogDowntime >= t4.ISISDowntime {
		t.Errorf("syslog downtime (%v) should be below IS-IS (%v)", t4.SyslogDowntime, t4.ISISDowntime)
	}
	// Roughly 20% of syslog failures are false positives.
	if t4.FalsePositiveFraction < 0.08 || t4.FalsePositiveFraction > 0.40 {
		t.Errorf("false positive fraction = %.2f, want ~0.21", t4.FalsePositiveFraction)
	}
}

func TestTable2Shape(t *testing.T) {
	_, a := fullStudy(t)
	t2 := a.Table2()
	t.Logf("Table 2: ISIS syslog vs IS=%.0f%%/%.0f%% vs IP=%.0f%%/%.0f%% | phys vs IS=%.0f%%/%.0f%% vs IP=%.0f%%/%.0f%%",
		100*t2.ISISDownVsIS, 100*t2.ISISUpVsIS, 100*t2.ISISDownVsIP, 100*t2.ISISUpVsIP,
		100*t2.PhysDownVsIS, 100*t2.PhysUpVsIS, 100*t2.PhysDownVsIP, 100*t2.PhysUpVsIP)

	// IS reachability matches far more IS-IS-process syslog than IP
	// reachability does (paper: 82% vs 25%).
	if t2.ISISDownVsIS < 2*t2.ISISDownVsIP {
		t.Errorf("IS reach (%.2f) should dominate IP reach (%.2f) for ISIS syslog downs", t2.ISISDownVsIS, t2.ISISDownVsIP)
	}
	if t2.ISISDownVsIS < 0.6 {
		t.Errorf("IS reach vs ISIS syslog = %.2f, want high (~0.82)", t2.ISISDownVsIS)
	}
	// IP reachability reflects physical media better than IS
	// reachability does (paper: 52% vs 31%).
	if t2.PhysDownVsIP <= t2.PhysDownVsIS {
		t.Errorf("IP reach (%.2f) should beat IS reach (%.2f) for physical syslog downs", t2.PhysDownVsIP, t2.PhysDownVsIS)
	}
}

func TestTable3Shape(t *testing.T) {
	_, a := fullStudy(t)
	t3 := a.Table3()
	dTot, uTot := t3.Down.Total(), t3.Up.Total()
	t.Logf("Table 3 DOWN: none=%d (%.0f%%) one=%d (%.0f%%) both=%d (%.0f%%)",
		t3.Down.None, pct(t3.Down.None, dTot), t3.Down.One, pct(t3.Down.One, dTot), t3.Down.Both, pct(t3.Down.Both, dTot))
	t.Logf("Table 3 UP:   none=%d (%.0f%%) one=%d (%.0f%%) both=%d (%.0f%%)",
		t3.Up.None, pct(t3.Up.None, uTot), t3.Up.One, pct(t3.Up.One, uTot), t3.Up.Both, pct(t3.Up.Both, uTot))
	t.Logf("unmatched in flap: down=%.0f%% up=%.0f%% | syslog flap matched=%.0f%%",
		100*t3.UnmatchedInFlapDown, 100*t3.UnmatchedInFlapUp, 100*t3.SyslogFlapMatchedFraction)

	if dTot == 0 || uTot == 0 {
		t.Fatal("no transitions accounted")
	}
	// Paper: 18% DOWN / 15% UP with no matching message.
	noneDown := float64(t3.Down.None) / float64(dTot)
	noneUp := float64(t3.Up.None) / float64(uTot)
	if noneDown < 0.05 || noneDown > 0.35 {
		t.Errorf("DOWN none fraction = %.2f, want ~0.18", noneDown)
	}
	if noneUp < 0.05 || noneUp > 0.35 {
		t.Errorf("UP none fraction = %.2f, want ~0.15", noneUp)
	}
	// Most unmatched transitions occur during flapping (67%/61%).
	if t3.UnmatchedInFlapDown < 0.4 {
		t.Errorf("unmatched-in-flap (down) = %.2f, want majority", t3.UnmatchedInFlapDown)
	}
}

func TestTable5Shape(t *testing.T) {
	_, a := fullStudy(t)
	t5 := a.Table5()
	for class, cells := range map[string]map[string]MetricSummaries{"Core": t5.Core, "CPE": t5.CPE} {
		for src, ms := range cells {
			t.Logf("%s/%s: fail/link med=%.1f avg=%.1f p95=%.1f | dur med=%.0fs avg=%.0fs | downtime med=%.1fh avg=%.1fh",
				class, src,
				ms.FailuresPerLink.Median, ms.FailuresPerLink.Mean, ms.FailuresPerLink.P95,
				ms.Duration.Median, ms.Duration.Mean,
				ms.Downtime.Median, ms.Downtime.Mean)
		}
	}
	t.Logf("KS: failures/link D=%.3f p=%.3f | duration D=%.3f p=%.3f | downtime D=%.3f p=%.3f",
		t5.KSFailuresPerLink.D, t5.KSFailuresPerLink.PValue,
		t5.KSDuration.D, t5.KSDuration.PValue,
		t5.KSDowntime.D, t5.KSDowntime.PValue)

	// CPE links fail more often than Core links (both sources).
	for _, src := range []string{"syslog", "isis"} {
		if t5.CPE[src].FailuresPerLink.Median <= t5.Core[src].FailuresPerLink.Median {
			t.Errorf("%s: CPE median failures/link (%.1f) should exceed Core (%.1f)",
				src, t5.CPE[src].FailuresPerLink.Median, t5.Core[src].FailuresPerLink.Median)
		}
	}
	// The paper's KS verdicts: failures/link and downtime consistent,
	// duration NOT.
	if !t5.KSFailuresPerLink.Consistent(0.01) {
		t.Errorf("failures/link should be KS-consistent (D=%.3f p=%.4f)", t5.KSFailuresPerLink.D, t5.KSFailuresPerLink.PValue)
	}
	if !t5.KSDowntime.Consistent(0.01) {
		t.Errorf("downtime should be KS-consistent (D=%.3f p=%.4f)", t5.KSDowntime.D, t5.KSDowntime.PValue)
	}
	if t5.KSDuration.Consistent(0.05) {
		t.Errorf("duration should NOT be KS-consistent (D=%.3f p=%.4f)", t5.KSDuration.D, t5.KSDuration.PValue)
	}
	// Cramér–von Mises must corroborate the verdicts.
	t.Logf("CvM: failures/link p=%.3f | duration p=%.3f | downtime p=%.3f",
		t5.CvMFailuresPerLink.PValue, t5.CvMDuration.PValue, t5.CvMDowntime.PValue)
	if !t5.CvMFailuresPerLink.Consistent(0.01) {
		t.Errorf("CvM rejects failures/link (p=%.4f)", t5.CvMFailuresPerLink.PValue)
	}
	if t5.CvMDuration.Consistent(0.05) {
		t.Errorf("CvM accepts duration (p=%.4f)", t5.CvMDuration.PValue)
	}
}

func TestTable6Shape(t *testing.T) {
	_, a := fullStudy(t)
	t6 := a.Table6()
	t.Logf("Table 6: lost=%d/%d spurious=%d/%d unknown=%d/%d | ambiguous span=%.1f%% | spurious-same-failure=%.0f%%",
		t6.LostDown, t6.LostUp, t6.SpuriousDown, t6.SpuriousUp, t6.UnknownDown, t6.UnknownUp,
		100*t6.AmbiguousFractionOfPeriod, 100*t6.SpuriousSameFailureDown)

	if t6.TotalDown() == 0 || t6.TotalUp() == 0 {
		t.Fatal("no ambiguities found")
	}
	// Paper: double downs outnumber double ups (461 vs 202), and
	// spurious retransmissions dominate double downs among
	// non-lost causes while lost messages dominate double ups.
	if t6.TotalDown() <= t6.TotalUp() {
		t.Errorf("double downs (%d) should outnumber double ups (%d)", t6.TotalDown(), t6.TotalUp())
	}
	if t6.SpuriousDown == 0 {
		t.Error("no spurious down retransmissions detected")
	}
	if t6.LostUp == 0 {
		t.Error("no lost-message double ups detected")
	}
}

func TestPolicyAblation(t *testing.T) {
	_, a := fullStudy(t)
	rows := a.PolicyAblation()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byPolicy := make(map[trace.AmbiguityPolicy]DowntimePolicy)
	for _, r := range rows {
		byPolicy[r.Policy] = r
		t.Logf("policy %v: downtime=%.0fh err=%.0fh", r.Policy, r.SyslogDowntime.Hours(), r.AbsError.Hours())
	}
	// The paper's recommendation: HoldPrevious minimizes error.
	hp := byPolicy[trace.HoldPrevious].AbsError
	if hp > byPolicy[trace.AssumeDown].AbsError || hp > byPolicy[trace.AssumeUp].AbsError {
		t.Errorf("HoldPrevious error (%v) should be minimal (down=%v up=%v)",
			hp, byPolicy[trace.AssumeDown].AbsError, byPolicy[trace.AssumeUp].AbsError)
	}
}

func TestWindowKneeShape(t *testing.T) {
	_, a := fullStudy(t)
	pts := a.WindowKnee(nil)
	if len(pts) < 5 {
		t.Fatal("too few sweep points")
	}
	for _, p := range pts {
		t.Logf("window %v: downtime matched %.1f%% failures matched %.1f%%",
			p.Window, 100*p.MatchedDowntimeFraction, 100*p.MatchedFailureFraction)
	}
	// Monotone growth with a knee: the gain from 10s on must be
	// small relative to the gain up to 10s.
	var at1, at10, at60 float64
	for _, p := range pts {
		switch p.Window {
		case time.Second:
			at1 = p.MatchedDowntimeFraction
		case 10 * time.Second:
			at10 = p.MatchedDowntimeFraction
		case 60 * time.Second:
			at60 = p.MatchedDowntimeFraction
		}
	}
	if !(at10 > at1) {
		t.Errorf("matching should grow toward 10s: 1s=%.3f 10s=%.3f", at1, at10)
	}
	if at60-at10 > at10-at1 {
		t.Errorf("no knee at 10s: gain before=%.3f, after=%.3f", at10-at1, at60-at10)
	}
}

func TestTable7Shape(t *testing.T) {
	_, a := fullStudy(t)
	t7 := a.Table7()
	t.Logf("Table 7: isis events=%d sites=%d downtime=%.1fd | syslog events=%d sites=%d downtime=%.1fd | inter events=%d sites=%d downtime=%.1fd",
		t7.ISISEvents, t7.ISISSites, t7.ISISDowntime.Hours()/24,
		t7.SyslogEvents, t7.SyslogSites, t7.SyslogDowntime.Hours()/24,
		t7.IntersectionEvents, t7.IntersectionSites, t7.IntersectionDowntime.Hours()/24)
	t.Logf("syslog-only=%d (noisis=%d intersecting=%d) | isis-only=%d (partial=%d sawfail=%d unrelated=%d, %.1fd)",
		t7.SyslogOnlyEvents, t7.SyslogOnlyNoISISFailure, t7.SyslogOnlyIntersecting,
		t7.ISISOnlyEvents, t7.ISISOnlyPartialMatch, t7.ISISOnlySyslogSawFailures, t7.ISISOnlyUnrelated,
		t7.ISISOnlyDowntime.Hours()/24)

	if t7.ISISEvents == 0 || t7.SyslogEvents == 0 {
		t.Fatal("no isolation events")
	}
	// Paper: IS-IS sees more isolating events and more isolation
	// downtime than syslog; a small syslog-only set exists.
	if t7.ISISEvents <= t7.SyslogEvents {
		t.Errorf("IS-IS events (%d) should exceed syslog events (%d)", t7.ISISEvents, t7.SyslogEvents)
	}
	if t7.SyslogOnlyEvents == 0 {
		t.Error("expected some syslog-only isolation events")
	}
	if t7.IntersectionEvents == 0 {
		t.Error("no intersecting events")
	}
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

func TestFalsePositiveBreakdown(t *testing.T) {
	_, a := fullStudy(t)
	fp := a.FalsePositives()
	t.Logf("false positives: %d total, %d short (%.0f%%) | downtime short=%.1fh long=%.1fh (long share %.0f%%) | long-in-flap %d | partial overlap %d (%.0fh) pure %.0fh",
		fp.Total, fp.Short, 100*fp.ShortFraction(),
		fp.ShortDowntime.Hours(), fp.LongDowntime.Hours(), 100*fp.LongDowntimeFraction(),
		fp.LongInFlap, fp.PartialOverlap, fp.PartialOverlapDowntime.Hours(), fp.PureDowntime.Hours())

	if fp.Total == 0 {
		t.Fatal("no false positives")
	}
	// Paper: 83% of false positives are <= 10 s.
	if fp.ShortFraction() < 0.55 {
		t.Errorf("short fraction = %.2f, want dominant (~0.83)", fp.ShortFraction())
	}
	// Paper: 94% of false-positive downtime belongs to the long ones.
	if fp.LongDowntimeFraction() < 0.7 {
		t.Errorf("long downtime fraction = %.2f, want dominant (~0.94)", fp.LongDowntimeFraction())
	}
	// Paper: long false positives occur overwhelmingly during flaps.
	long := fp.Total - fp.Short
	if long > 0 && float64(fp.LongInFlap)/float64(long) < 0.4 {
		t.Errorf("long-in-flap = %d of %d, want majority", fp.LongInFlap, long)
	}
}

func TestEgregiousIsolationsAndTimeline(t *testing.T) {
	_, a := fullStudy(t)
	worst := a.EgregiousIsolations(5)
	if len(worst) == 0 {
		t.Fatal("no matched isolation pairs")
	}
	for i, m := range worst {
		t.Logf("egregious %d: %s isis=%v syslog=%v ratio=%.1f overlap=%v",
			i, m.Customer, m.ISIS.Duration(), m.Syslog.Duration(), m.Ratio, m.Overlap)
		if m.Ratio < 1 {
			t.Errorf("ratio below 1: %+v", m)
		}
		if m.Overlap <= 0 {
			t.Errorf("matched pair without overlap: %+v", m)
		}
	}
	// Ranked worst-first.
	for i := 1; i < len(worst); i++ {
		if worst[i].Ratio > worst[i-1].Ratio {
			t.Error("not sorted by ratio")
		}
	}
	// The paper's anecdotes are order-of-magnitude mismatches; a
	// 13-month campaign should surface at least a 5x disagreement.
	if worst[0].Ratio < 5 {
		t.Errorf("worst ratio = %.1f, expected an egregious mismatch", worst[0].Ratio)
	}

}
