package netfail

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"netfail/internal/report"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// smallConfig is a quick campaign for API tests.
func smallConfig(seed int64) SimulationConfig {
	return SimulationConfig{
		Seed: seed,
		Spec: topo.Spec{
			Seed: seed, CoreRouters: 10, CPERouters: 20, CoreChords: 2,
			DualHomedCPE: 4, MultiLinkCorePairs: 1, MultiLinkCPEPairs: 2,
			Customers: 15, LinkBase: 137<<24 | 164<<16, CoreMetric: 10, CPEMetric: 100,
		},
		Start:           time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC),
		End:             time.Date(2011, 2, 15, 0, 0, 0, 0, time.UTC),
		ListenerOffline: []trace.Interval{},
	}
}

func TestRunEndToEnd(t *testing.T) {
	study, err := Run(context.Background(), smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if study.Campaign == nil || study.Mined == nil || study.Listener == nil || study.Analysis == nil {
		t.Fatal("incomplete study")
	}
	t4 := study.Analysis.Table4()
	if t4.ISISFailures == 0 || t4.SyslogFailures == 0 {
		t.Errorf("empty comparison: %+v", t4)
	}
	// The analysis must have run on the MINED network, which round
	// trips the generated one.
	if len(study.Mined.Network.Links) != len(study.Campaign.Network.Links) {
		t.Errorf("mined %d links, campaign %d", len(study.Mined.Network.Links), len(study.Campaign.Network.Links))
	}
}

func TestReportRendersAllSections(t *testing.T) {
	study, err := Run(context.Background(), smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := study.Report(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
		"Table 6", "Table 7", "Figure 1a", "Figure 1b", "Figure 1c",
		"knee at ten seconds", "hold-previous",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(out) < 2000 {
		t.Errorf("report suspiciously short: %d bytes", len(out))
	}
}

func TestStagesComposable(t *testing.T) {
	camp, err := Simulate(context.Background(), smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	mined, err := MineConfigs(camp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Listen(context.Background(), mined.Network, camp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ISTransitions) == 0 {
		t.Error("listener produced no transitions")
	}
	if tix := GenerateTickets(camp); tix.Len() == 0 {
		t.Error("no tickets generated")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(context.Background(), smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := a.Analysis.Table4(), b.Analysis.Table4()
	if ta.ISISFailures != tb.ISISFailures || ta.SyslogFailures != tb.SyslogFailures ||
		ta.SyslogDowntime != tb.SyslogDowntime {
		t.Errorf("nondeterministic: %+v vs %+v", ta, tb)
	}
}

func TestMarkdownReportEndToEnd(t *testing.T) {
	study, err := Run(context.Background(), smallConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.Markdown(&buf, study.Analysis,
		study.Campaign.Archive.FileCount(), study.Campaign.Counts.LSPUpdates); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# Reproduction report", "## Table 1", "## Table 7",
		"| Verdict |", "knee at ten seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	// Topology cells always reproduce exactly on default-shaped specs
	// scaled down... the small spec differs from CENIC, so just check
	// verdicts exist.
	if !strings.Contains(out, "| ok |") {
		t.Error("no ok verdicts rendered")
	}
}
