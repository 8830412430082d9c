package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netfail/internal/core"
	"netfail/internal/match"
	"netfail/internal/trace"
)

func sampleFigure() core.Figure1 {
	mk := func(label string, n int) core.CDF {
		var xs, ys []float64
		for i := 1; i <= n; i++ {
			xs = append(xs, float64(i))
			ys = append(ys, float64(i)/float64(n))
		}
		return core.CDF{Label: label, X: xs, Y: ys}
	}
	return core.Figure1{
		FailureDuration: [2]core.CDF{mk("syslog", 600), mk("isis", 500)},
		LinkDowntime:    [2]core.CDF{mk("syslog", 50), mk("isis", 50)},
		TimeBetween:     [2]core.CDF{mk("syslog", 80), mk("isis", 80)},
	}
}

func sampleKnee() []match.WindowPoint {
	return []match.WindowPoint{
		{Window: time.Second, MatchedDowntimeFraction: 0.4, MatchedFailureFraction: 0.35},
		{Window: 10 * time.Second, MatchedDowntimeFraction: 0.75, MatchedFailureFraction: 0.7},
		{Window: time.Minute, MatchedDowntimeFraction: 0.85, MatchedFailureFraction: 0.8},
	}
}

func TestSaveFiguresWritesAllSVGs(t *testing.T) {
	dir := t.TempDir()
	paths, err := SaveFigures(dir, sampleFigure(), sampleKnee())
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("paths = %v", paths)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "<svg") {
			t.Errorf("%s is not an SVG", p)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "knee.svg")); err != nil {
		t.Error("knee.svg missing")
	}
}

func TestSaveFiguresDownsamples(t *testing.T) {
	dir := t.TempDir()
	paths, err := SaveFigures(dir, sampleFigure(), sampleKnee())
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(paths[0]) // figure1a from 600-point CDFs
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 120_000 {
		t.Errorf("figure1a.svg = %d bytes; downsampling ineffective", len(data))
	}
}

func TestDownsampleKeepsEndpoints(t *testing.T) {
	x := make([]float64, 1000)
	y := make([]float64, 1000)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(i) / 999
	}
	ox, oy := downsample(x, y, 100)
	if len(ox) != 100 || len(oy) != 100 {
		t.Fatalf("len = %d/%d", len(ox), len(oy))
	}
	if ox[0] != 0 || ox[99] != 999 || oy[99] != 1 {
		t.Errorf("endpoints: %v..%v / %v", ox[0], ox[99], oy[99])
	}
	// Short inputs pass through untouched.
	sx, sy := downsample(x[:5], y[:5], 100)
	if len(sx) != 5 || len(sy) != 5 {
		t.Error("short input resampled")
	}
}

func TestRenderTable1(t *testing.T) {
	var buf bytes.Buffer
	t1 := core.Table1{
		Period:      trace.Interval{Start: time.Date(2010, 10, 20, 0, 0, 0, 0, time.UTC), End: time.Date(2011, 11, 11, 0, 0, 0, 0, time.UTC)},
		CoreRouters: 60, CPERouters: 175,
		ConfigFiles: 11623, CoreLinks: 84, CPELinks: 215,
		SyslogMessages: 84468, ISISUpdates: 11095550,
		MultiLinkAdjacencyPairs: 26, AnalyzedLinks: 247,
	}
	if err := RenderTable1(&buf, t1); err != nil {
		t.Fatal(err)
	}
	// The measured syslog count is not the paper's, so both columns show.
	for _, want := range []string{"60 Core and 175 CPE", "11,095,550", "84,468", "47,371", "Oct 20, 2010"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing %q:\n%s", want, buf.String())
		}
	}
}

func TestRenderTable3(t *testing.T) {
	var buf bytes.Buffer
	t3 := core.Table3{
		Down:                core.Table3Row{None: 10, One: 20, Both: 70},
		Up:                  core.Table3Row{None: 5, One: 45, Both: 50},
		UnmatchedInFlapDown: 0.67, UnmatchedInFlapUp: 0.61,
	}
	if err := RenderTable3(&buf, t3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "70 (70%)") || !strings.Contains(out, "67%") {
		t.Errorf("render:\n%s", out)
	}
	// Zero-total rows must not divide by zero.
	buf.Reset()
	if err := RenderTable3(&buf, core.Table3{}); err != nil {
		t.Fatal(err)
	}
}

func TestRenderTable7(t *testing.T) {
	var buf bytes.Buffer
	t7 := core.Table7{
		ISISEvents: 1401, SyslogEvents: 1060, IntersectionEvents: 1002,
		ISISSites: 74, SyslogSites: 67, IntersectionSites: 66,
		ISISDowntime:     26*24*time.Hour + 7*time.Hour,
		SyslogOnlyEvents: 58, SyslogOnlyNoISISFailure: 12, SyslogOnlyIntersecting: 46,
		ISISOnlyEvents: 399, ISISOnlyDowntime: 6*24*time.Hour + 12*time.Hour,
	}
	if err := RenderTable7(&buf, t7); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"1,401", "26.3", "Syslog-only events: 58", "IS-IS-only events: 399"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}
