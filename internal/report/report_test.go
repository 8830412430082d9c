package report

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
	"time"

	"netfail/internal/core"
	"netfail/internal/match"
	"netfail/internal/stats"
	"netfail/internal/trace"
)

func TestTableAlignment(t *testing.T) {
	tbl := NewTable("Title", "A", "LongHeader", "C")
	tbl.AddRow("x", "1", "z")
	tbl.AddRow("longer-cell", "2", "w")
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d: %q", len(lines), buf.String())
	}
	if lines[0] != "Title" {
		t.Errorf("title = %q", lines[0])
	}
	// Column B must start at the same offset in all content lines.
	idx := strings.Index(lines[1], "LongHeader")
	if strings.Index(lines[3], "1") != idx || strings.Index(lines[4], "2") != idx {
		t.Errorf("columns misaligned:\n%s", buf.String())
	}
}

func TestTableDropsExtraCells(t *testing.T) {
	tbl := NewTable("", "A")
	tbl.AddRow("x", "overflow")
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "overflow") {
		t.Error("extra cell rendered")
	}
}

func TestNum(t *testing.T) {
	cases := map[int]string{
		0:        "0",
		999:      "999",
		1000:     "1,000",
		11095550: "11,095,550",
		-1234:    "-1,234",
	}
	for n, want := range cases {
		if got := Num(n); got != want {
			t.Errorf("Num(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestPct(t *testing.T) {
	if Pct(0.823) != "82%" {
		t.Errorf("Pct = %q", Pct(0.823))
	}
}

func TestRenderTablesContainPaperValues(t *testing.T) {
	var buf bytes.Buffer
	t2 := core.Table2{ISISDownVsIS: 0.8, ISISDownVsIP: 0.3}
	if err := RenderTable2(&buf, t2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"82%", "25%", "IS-IS Down", "physical media Up"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 render missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	t4 := core.Table4{ISISFailures: 100, SyslogFailures: 110, ISISDowntime: time.Hour}
	if err := RenderTable4(&buf, t4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "11,213") {
		t.Errorf("Table 4 render missing paper count:\n%s", buf.String())
	}

	buf.Reset()
	t6 := core.Table6{LostDown: 3, SpuriousUp: 2}
	if err := RenderTable6(&buf, t6); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Spurious Retransmission") {
		t.Errorf("Table 6 render:\n%s", buf.String())
	}
}

func TestRenderTable5HandlesEmptyCells(t *testing.T) {
	var buf bytes.Buffer
	t5 := core.Table5{
		Core: map[string]core.MetricSummaries{},
		CPE:  map[string]core.MetricSummaries{},
	}
	if err := RenderTable5(&buf, t5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "KS tests") {
		t.Error("missing KS line")
	}
}

func TestRenderKneeAndPolicies(t *testing.T) {
	var buf bytes.Buffer
	pts := []match.WindowPoint{
		{Window: time.Second, MatchedDowntimeFraction: 0.4, MatchedFailureFraction: 0.3},
		{Window: 10 * time.Second, MatchedDowntimeFraction: 0.7, MatchedFailureFraction: 0.7},
	}
	if err := RenderKnee(&buf, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "10s") || !strings.Contains(buf.String(), "70%") {
		t.Errorf("knee render:\n%s", buf.String())
	}
	buf.Reset()
	rows := []core.DowntimePolicy{
		{Policy: trace.HoldPrevious, SyslogDowntime: 100 * time.Hour, AbsError: time.Hour},
	}
	if err := RenderPolicies(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hold-previous") {
		t.Errorf("policies render:\n%s", buf.String())
	}
}

func TestRenderFigure1Grid(t *testing.T) {
	mk := func(label string, xs []float64) core.CDF {
		ys := make([]float64, len(xs))
		for i := range xs {
			ys[i] = float64(i+1) / float64(len(xs))
		}
		return core.CDF{Label: label, X: xs, Y: ys}
	}
	fig := core.Figure1{
		FailureDuration: [2]core.CDF{mk("syslog", []float64{1, 2, 5}), mk("isis", []float64{2, 3})},
		LinkDowntime:    [2]core.CDF{mk("syslog", []float64{1}), mk("isis", []float64{1})},
		TimeBetween:     [2]core.CDF{mk("syslog", []float64{0.5}), mk("isis", []float64{0.7})},
	}
	var buf bytes.Buffer
	if err := RenderFigure1(&buf, fig); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 1a") || !strings.Contains(out, "Figure 1c") {
		t.Errorf("missing sections:\n%s", out)
	}
	// Merged grid of 1a: x values 1,2,3,5 each with two columns.
	if !strings.Contains(out, "1\t0.3333\t0.0000") {
		t.Errorf("unexpected grid:\n%s", out)
	}
}

func TestMergeGridDownsamples(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	got := mergeGrid(xs, nil, 100)
	if len(got) != 100 {
		t.Errorf("len = %d, want 100", len(got))
	}
	if got[0] != 0 || got[99] != 999 {
		t.Errorf("endpoints = %v, %v", got[0], got[99])
	}
}

func TestSummaryUnused(t *testing.T) {
	// Guard: stats.Summary zero value renders as zeros without panic.
	var s stats.Summary
	if s.Median != 0 {
		t.Fatal("unexpected")
	}
}

// TestTable5VerdictsAgree renders Table 5 from synthetic p-values
// either side of alpha through both renderers: the markdown verdict
// for a metric must follow from the text report's KS and CvM verdicts
// by the one rule — consistent when both tests are, and "ok" when
// that agrees with the paper (duration inconsistent, the others
// consistent).
func TestTable5VerdictsAgree(t *testing.T) {
	ps := []float64{0.005, 0.03, 0.2}
	verdicts := regexp.MustCompile(`\((consistent|NOT consistent)\)`)
	for _, ks := range ps {
		for _, cvm := range ps {
			var tables core.Tables
			t5 := &tables.Table5
			t5.KSFailuresPerLink, t5.KSDuration, t5.KSDowntime = stats.KSResult{PValue: ks}, stats.KSResult{PValue: ks}, stats.KSResult{PValue: ks}
			t5.CvMFailuresPerLink, t5.CvMDuration, t5.CvMDowntime = stats.CvMResult{PValue: cvm}, stats.CvMResult{PValue: cvm}, stats.CvMResult{PValue: cvm}
			var text, md bytes.Buffer
			if err := RenderTable5(&text, *t5); err != nil {
				t.Fatal(err)
			}
			if err := Markdown(&md, &tables); err != nil {
				t.Fatal(err)
			}
			// KS then CvM, each failures/link, duration, downtime.
			v := verdicts.FindAllStringSubmatch(text.String(), -1)
			if len(v) != 6 {
				t.Fatalf("text report has %d verdicts, want 6:\n%s", len(v), text.String())
			}
			for i, metric := range []string{"failures/link", "duration", "downtime"} {
				consistent := v[i][1] == "consistent" && v[i+3][1] == "consistent"
				want := boolVerdict(consistent != (metric == "duration"))
				if !strings.Contains(md.String(), "| "+metric+" | "+f3(ks)+" | "+f3(cvm)+" | "+want+" |") {
					t.Errorf("KS p=%v, CvM p=%v: the text report reads %s/%s for %s, the markdown verdict is not %q",
						ks, cvm, v[i][1], v[i+3][1], metric, want)
				}
			}
		}
	}
}

func TestMarkdownSmoke(t *testing.T) {
	// The verdict helpers' banding; the renderer itself is covered by
	// TestTable5VerdictsAgree, the CLI and the golden docs.
	cases := []struct {
		m, p float64
		want string
	}{
		{0.82, 0.82, "ok"},
		{0.60, 0.82, "partial"},
		{0.10, 0.82, "off"},
	}
	for _, c := range cases {
		if got := fracVerdict(c.m, c.p); got != c.want {
			t.Errorf("fracVerdict(%v, %v) = %q, want %q", c.m, c.p, got, c.want)
		}
	}
	if countVerdict(100, 100) != "ok" || countVerdict(100, 250) != "partial" || countVerdict(100, 10000) != "off" {
		t.Error("countVerdict bands wrong")
	}
	if countVerdict(0, 0) != "ok" || countVerdict(5, 0) != "off" {
		t.Error("countVerdict zero handling wrong")
	}
	if boolVerdict(true) != "ok" || boolVerdict(false) != "off" {
		t.Error("boolVerdict wrong")
	}
}
