package netsim

import (
	"context"
	"testing"
	"time"

	"netfail/internal/listener"
	"netfail/internal/syslog"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// shortCampaign runs a 30-day campaign on a small network.
func shortCampaign(t *testing.T, seed int64) *Campaign {
	t.Helper()
	camp, err := Run(context.Background(), shortConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return camp
}

// shortConfig is shortCampaign's configuration.
func shortConfig(seed int64) Config {
	return Config{
		Seed: seed,
		Spec: topo.Spec{
			Seed: seed, CoreRouters: 10, CPERouters: 20, CoreChords: 2,
			DualHomedCPE: 4, MultiLinkCorePairs: 1, MultiLinkCPEPairs: 2,
			Customers: 15, LinkBase: 137<<24 | 164<<16, CoreMetric: 10, CPEMetric: 100,
		},
		Start:           time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC),
		End:             time.Date(2011, 1, 31, 0, 0, 0, 0, time.UTC),
		ListenerOffline: []trace.Interval{},
	}
}

// TestShortCampaignAllocBudget holds seed 1's short campaign to the
// allocations it makes with syslog messages built by value and stored
// a slab at a time (4,034), plus a twentieth; with a Message and a
// concatenated text allocated per message it made 5,389.
func TestShortCampaignAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside the simulator")
	}
	cfg := shortConfig(1)
	avg := testing.AllocsPerRun(3, func() {
		if _, err := Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 4235 {
		t.Errorf("seed 1's short campaign allocates %.0f times, budget is 4,235", avg)
	}
}

func TestCampaignProducesBothChannels(t *testing.T) {
	camp := shortCampaign(t, 1)
	if len(camp.GroundTruth) == 0 {
		t.Fatal("no ground truth failures")
	}
	if len(camp.Syslog) == 0 {
		t.Fatal("no syslog messages")
	}
	if len(camp.LSPLog) == 0 {
		t.Fatal("no LSPs captured")
	}
	if camp.Counts.SyslogSent <= camp.Counts.SyslogReceived {
		t.Error("no syslog loss occurred; impairment model inactive")
	}
}

// reparse renders m and parses the line back through a Tokenizer.
func reparse(m *syslog.Message, ref time.Time) (*syslog.Message, error) {
	parsed := new(syslog.Message)
	if err := syslog.NewTokenizer().ParseBytes(m.AppendRender(nil), ref, parsed); err != nil {
		return nil, err
	}
	return parsed, nil
}

func TestCampaignSyslogWellFormed(t *testing.T) {
	camp := shortCampaign(t, 2)
	linkEvents := 0
	for _, m := range camp.Syslog {
		// Round trip through the wire format.
		parsed, err := reparse(m, camp.Config.Start)
		if err != nil {
			t.Fatalf("message %q does not parse: %v", m.Render(), err)
		}
		if *parsed != *m {
			t.Fatalf("message %q parses to %+v, built as %+v", m.Render(), *parsed, *m)
		}
		if parsed.Link.Type != syslog.EventOther && parsed.Text == "" {
			linkEvents++
		}
	}
	if linkEvents != len(camp.Syslog) {
		t.Errorf("only %d/%d messages are link events", linkEvents, len(camp.Syslog))
	}
}

func TestCampaignTimestampsOrderedAndBounded(t *testing.T) {
	camp := shortCampaign(t, 3)
	var prev time.Time
	for i, m := range camp.Syslog {
		if m.Timestamp.Before(prev) {
			t.Fatalf("syslog out of order at %d", i)
		}
		prev = m.Timestamp
	}
	prev = time.Time{}
	for i, c := range camp.LSPLog {
		if c.Time.Before(prev) {
			t.Fatalf("LSP log out of order at %d", i)
		}
		prev = c.Time
	}
	// Timestamps must not precede the window start; trailing
	// recovery events may slightly exceed End, bounded by the
	// scheduler cutoff.
	if camp.Syslog[0].Timestamp.Before(camp.Config.Start) {
		t.Error("syslog before window start")
	}
}

func TestCampaignDeterministic(t *testing.T) {
	a := shortCampaign(t, 42)
	b := shortCampaign(t, 42)
	if len(a.Syslog) != len(b.Syslog) {
		t.Fatalf("syslog lengths differ: %d vs %d", len(a.Syslog), len(b.Syslog))
	}
	for i := range a.Syslog {
		if a.Syslog[i].Render() != b.Syslog[i].Render() {
			t.Fatalf("syslog %d differs", i)
		}
	}
	if len(a.LSPLog) != len(b.LSPLog) {
		t.Fatalf("LSP log lengths differ: %d vs %d", len(a.LSPLog), len(b.LSPLog))
	}
	for i := range a.LSPLog {
		if string(a.LSPLog[i].Data) != string(b.LSPLog[i].Data) {
			t.Fatalf("LSP %d differs", i)
		}
	}
}

func TestCampaignSeedsDiffer(t *testing.T) {
	a := shortCampaign(t, 1)
	b := shortCampaign(t, 2)
	if len(a.Syslog) == len(b.Syslog) && len(a.GroundTruth) == len(b.GroundTruth) {
		// Extremely unlikely to collide on both counts.
		t.Error("different seeds produced identical campaign sizes")
	}
}

func TestCampaignFeedsListener(t *testing.T) {
	camp := shortCampaign(t, 4)
	l := listener.New(camp.Network)
	for _, c := range camp.LSPLog {
		if err := l.Process(c.Time, c.Data); err != nil {
			t.Fatalf("listener rejected LSP: %v", err)
		}
	}
	res := l.Results()
	if len(res.ISTransitions) == 0 {
		t.Fatal("no IS transitions from campaign")
	}
	if len(res.IPTransitions) == 0 {
		t.Fatal("no IP transitions from campaign")
	}
	// IS-reach failure reconstruction should roughly track ground
	// truth on analyzed (single-adjacency) links.
	rec := trace.Reconstruct(res.ISTransitions)
	truth := 0
	for _, f := range camp.GroundTruth {
		if !camp.Network.IsMultiLink(f.Link) {
			truth++
		}
	}
	got := len(rec.Failures)
	if got < truth/2 || got > truth*3/2 {
		t.Errorf("IS failures = %d, ground truth (single-link) = %d", got, truth)
	}
	// Hostname map should cover every router heard.
	if len(res.Hostnames) != len(camp.Network.Routers) {
		t.Errorf("hostnames = %d, want %d", len(res.Hostnames), len(camp.Network.Routers))
	}
}

func TestListenerOfflineWindowSuppressesCapture(t *testing.T) {
	cfg := Config{
		Seed: 5,
		Spec: topo.Spec{
			Seed: 5, CoreRouters: 10, CPERouters: 20, CoreChords: 2,
			DualHomedCPE: 4, MultiLinkCorePairs: 1, MultiLinkCPEPairs: 2,
			Customers: 15, LinkBase: 137<<24 | 164<<16, CoreMetric: 10, CPEMetric: 100,
		},
		Start: time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2011, 1, 31, 0, 0, 0, 0, time.UTC),
		ListenerOffline: []trace.Interval{{
			Start: time.Date(2011, 1, 10, 0, 0, 0, 0, time.UTC),
			End:   time.Date(2011, 1, 12, 0, 0, 0, 0, time.UTC),
		}},
	}
	camp, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range camp.LSPLog {
		if cfg.ListenerOffline[0].Contains(c.Time) {
			t.Fatalf("LSP captured during offline window at %v", c.Time)
		}
	}
	// Resync after the window: some LSPs right at window end.
	sawResync := false
	for _, c := range camp.LSPLog {
		if !c.Time.Before(cfg.ListenerOffline[0].End) &&
			c.Time.Before(cfg.ListenerOffline[0].End.Add(time.Minute)) {
			sawResync = true
			break
		}
	}
	if !sawResync {
		t.Error("no resync LSPs after offline window")
	}
}

func TestRefreshFullMode(t *testing.T) {
	cfg := Config{
		Seed: 6,
		Spec: topo.Spec{
			Seed: 6, CoreRouters: 5, CPERouters: 5, CoreChords: 1,
			DualHomedCPE: 1, MultiLinkCorePairs: 0, MultiLinkCPEPairs: 0,
			Customers: 5, LinkBase: 137<<24 | 164<<16, CoreMetric: 10, CPEMetric: 100,
		},
		Start:           time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC),
		End:             time.Date(2011, 1, 2, 0, 0, 0, 0, time.UTC),
		ListenerOffline: []trace.Interval{},
		RefreshMode:     RefreshFull,
		RefreshInterval: time.Hour,
	}
	camp, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 10 devices x ~24 refreshes, plus content LSPs.
	if camp.Counts.LSPUpdates < 200 {
		t.Errorf("LSP updates = %d, expected refresh traffic", camp.Counts.LSPUpdates)
	}
	// Refreshes with no changes must not perturb the listener.
	l := listener.New(camp.Network)
	for _, c := range camp.LSPLog {
		if err := l.Process(c.Time, c.Data); err != nil {
			t.Fatal(err)
		}
	}
	res := l.Results()
	rec := trace.Reconstruct(res.ISTransitions)
	if len(rec.Failures) > len(camp.GroundTruth)*2 {
		t.Errorf("refresh traffic fabricated failures: %d vs truth %d", len(rec.Failures), len(camp.GroundTruth))
	}
}

func TestAnalyticRefreshCount(t *testing.T) {
	camp := shortCampaign(t, 7)
	// 30 routers, 30 days, 15-minute interval: 30*30*96 = 86,400.
	want := 30 * 30 * 96
	refresh := camp.Counts.LSPUpdates - camp.Counts.ContentLSPs
	if refresh != want {
		t.Errorf("analytic refresh = %d, want %d", refresh, want)
	}
}

func TestAllFeaturesCombined(t *testing.T) {
	// Every opt-in mechanism at once must still produce a coherent
	// campaign.
	im := DefaultImpairments()
	im.RateLimitPerMin = 10
	im.RateLimitBurst = 20
	im.NoisePerRouterDay = 1
	w := DefaultWorkload()
	w.MaintenancePerRouterYear = 1
	cfg := Config{
		Seed: 77,
		Spec: topo.Spec{
			Seed: 77, CoreRouters: 10, CPERouters: 20, CoreChords: 2,
			DualHomedCPE: 4, MultiLinkCorePairs: 1, MultiLinkCPEPairs: 2,
			Customers: 15, LinkBase: 137<<24 | 164<<16, CoreMetric: 10, CPEMetric: 100,
		},
		Start:           time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC),
		End:             time.Date(2011, 2, 15, 0, 0, 0, 0, time.UTC),
		ListenerOffline: []trace.Interval{},
		Workload:        &w,
		Impair:          &im,
		EnableLinkIDs:   true,
		InBandSyslog:    true,
	}
	camp, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.Syslog) == 0 || len(camp.LSPLog) == 0 {
		t.Fatal("empty campaign")
	}
	// The pipeline must still run end to end.
	l := listener.New(camp.Network)
	for _, c := range camp.LSPLog {
		if err := l.Process(c.Time, c.Data); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.Results().ISTransitions) == 0 {
		t.Fatal("no transitions with all features enabled")
	}
	// And deterministically.
	camp2, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if camp2.Counts != camp.Counts {
		t.Errorf("nondeterministic: %+v vs %+v", camp.Counts, camp2.Counts)
	}
}
