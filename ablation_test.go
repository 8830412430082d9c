package netfail

// Ablation experiments for the design choices DESIGN.md calls out:
// each toggles one mechanism of the substitution model and checks (or
// reports, for the benchmarks) how a headline result moves. These are
// the experiments behind the calibration story in EXPERIMENTS.md.

import (
	"context"
	"testing"
	"time"

	"netfail/internal/core"
	"netfail/internal/netsim"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// TestLinkIDExtensionRecoversMultiLinkCoverage exercises the paper's
// footnote-1 extension end to end: with RFC 5307 link identifiers on
// the wire, the analysis can include the multi-link adjacencies it
// otherwise discards, and the listener produces per-link failures for
// them.
func TestLinkIDExtensionRecoversMultiLinkCoverage(t *testing.T) {
	base := smallConfig(31)
	withIDs := base
	withIDs.EnableLinkIDs = true

	campBase, err := Simulate(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	campIDs, err := Simulate(context.Background(), withIDs)
	if err != nil {
		t.Fatal(err)
	}

	legacy, err := Analyze(context.Background(), campBase)
	if err != nil {
		t.Fatal(err)
	}
	extended, err := Analyze(context.Background(), campIDs, WithMultiLink(true))
	if err != nil {
		t.Fatal(err)
	}

	nLinks := len(campBase.Network.Links)
	if got := len(legacy.Analysis.AnalyzedLinks); got >= nLinks {
		t.Errorf("legacy analysis should discard multi-link links: %d of %d", got, nLinks)
	}
	if got := len(extended.Analysis.AnalyzedLinks); got != nLinks {
		t.Errorf("extended analysis links = %d, want all %d", got, nLinks)
	}

	// The extension must actually recover IS-IS failures on the
	// parallel links, not just include silent links.
	multi := make(map[topo.LinkID]bool)
	for _, l := range campIDs.Network.Links {
		if campIDs.Network.IsMultiLink(l.ID) {
			multi[l.ID] = true
		}
	}
	// Ground truth failures on multi-link links in this campaign.
	truthMulti := 0
	for _, f := range campIDs.GroundTruth {
		if multi[f.Link] {
			truthMulti++
		}
	}
	recovered := 0
	for _, f := range extended.Analysis.ISISFailures {
		if multi[f.Link] {
			recovered++
		}
	}
	if truthMulti == 0 {
		t.Skip("no ground-truth failures on multi-link links this seed")
	}
	if recovered == 0 {
		t.Fatalf("no IS-IS failures recovered on multi-link links (truth has %d)", truthMulti)
	}
	if recovered < truthMulti/2 {
		t.Errorf("recovered %d of %d multi-link failures", recovered, truthMulti)
	}
	// And the legacy listener must NOT see them.
	legacyMulti := 0
	for _, f := range legacy.Analysis.ISISFailures {
		if multi[f.Link] {
			legacyMulti++
		}
	}
	if legacyMulti != 0 {
		t.Errorf("legacy analysis reported %d multi-link failures, want 0", legacyMulti)
	}
}

// TestBlackoutModelDrivesTransitionMisses: turning the correlated
// blackout model off collapses the None column of Table 3, showing
// the mechanism carries the paper's 15-18%% missed transitions.
func TestBlackoutModelDrivesTransitionMisses(t *testing.T) {
	base := smallConfig(32)
	noBlackout := base
	im := netsim.DefaultImpairments()
	im.BlackoutBase, im.BlackoutFlap, im.BlackoutLong, im.DownBlackoutProb = 0, 0, 0, 0
	noBlackout.Impair = &im

	with, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(context.Background(), noBlackout)
	if err != nil {
		t.Fatal(err)
	}
	noneWith := noneFraction(with.Analysis)
	noneWithout := noneFraction(without.Analysis)
	t.Logf("none fraction: with blackouts %.3f, without %.3f", noneWith, noneWithout)
	if noneWithout >= noneWith {
		t.Errorf("disabling blackouts should reduce missed transitions: %.3f -> %.3f", noneWith, noneWithout)
	}
}

// TestPseudoFailuresDriveFalsePositives: without reset pseudo-
// failures, syslog's false-positive count collapses (§4.3 attributes
// the short false positives to aborted handshakes and resets).
func TestPseudoFailuresDriveFalsePositives(t *testing.T) {
	base := smallConfig(33)
	noPseudo := base
	im := netsim.DefaultImpairments()
	im.PseudoBackgroundPerYear, im.PseudoAfterFlap, im.PseudoAfterNonFlap = 0, 0, 0
	noPseudo.Impair = &im

	with, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(context.Background(), noPseudo)
	if err != nil {
		t.Fatal(err)
	}
	fpWith := with.Analysis.Table4().FalsePositives
	fpWithout := without.Analysis.Table4().FalsePositives
	t.Logf("false positives: with pseudo %d, without %d", fpWith, fpWithout)
	if fpWithout >= fpWith {
		t.Errorf("disabling pseudo-failures should reduce false positives: %d -> %d", fpWith, fpWithout)
	}
}

// TestLSPSuppressionBlindsListener: without LSP suppression the
// listener sees nearly every ground-truth failure; with it, the
// short-reset blind spot appears. Suppression only touches
// sub-1.5-second blips, so this needs a CENIC-scale campaign for a
// meaningful sample.
func TestLSPSuppressionBlindsListener(t *testing.T) {
	base := SimulationConfig{Seed: 34}
	base.Start = netsim.StudyStart
	base.End = netsim.StudyStart.Add(90 * 24 * time.Hour)
	base.ListenerOffline = []trace.Interval{}
	noSuppress := base
	im := netsim.DefaultImpairments()
	im.LSPSuppressProb = 0
	noSuppress.Impair = &im

	with, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(context.Background(), noSuppress)
	if err != nil {
		t.Fatal(err)
	}
	isisWith := with.Analysis.Table4().ISISFailures
	isisWithout := without.Analysis.Table4().ISISFailures
	t.Logf("IS-IS failures: with suppression %d, without %d", isisWith, isisWithout)
	if isisWithout <= isisWith {
		t.Errorf("disabling suppression should surface more IS-IS failures: %d -> %d", isisWith, isisWithout)
	}
}

// ablationBenchState is the per-config setup the ablation benchmarks
// hoist out of the measured loop: one simulated campaign, mined once,
// replayed through the listener once, plus a long-lived Extractor.
// The loop then measures only the ablated comparison — extraction
// through a reused (Extractor, SyslogTraces) pair and core.Analyze
// over pre-extracted Traces — instead of re-simulating and
// re-allocating a campaign's worth of state every iteration.
type ablationBenchState struct {
	camp  *Campaign
	mined *Study // only Mined/Listener/Tickets fields are set
	ext   *core.Extractor
	st    core.SyslogTraces
}

func newAblationBench(b testing.TB, cfg SimulationConfig) *ablationBenchState {
	b.Helper()
	ctx := context.Background()
	camp, err := Simulate(ctx, cfg)
	if err != nil {
		b.Fatal(err)
	}
	mined, err := MineConfigs(camp)
	if err != nil {
		b.Fatal(err)
	}
	res, err := Listen(ctx, mined.Network, camp)
	if err != nil {
		b.Fatal(err)
	}
	s := &ablationBenchState{
		camp: camp,
		mined: &Study{
			Mined:    mined,
			Listener: res,
			Tickets:  GenerateTickets(camp),
		},
		ext: core.NewExtractor(mined.Network),
	}
	// Warm the extractor's scratch so the measured loop is the
	// amortized steady state.
	s.ext.ExtractInto(ctx, camp.Syslog, 60*time.Second, 1, &s.st)
	return s
}

// analyze runs one ablated comparison over the pre-extracted traces.
func (s *ablationBenchState) analyze(b testing.TB, multiLink bool) *Analysis {
	b.Helper()
	ctx := context.Background()
	s.ext.ExtractInto(ctx, s.camp.Syslog, 60*time.Second, 1, &s.st)
	a, err := core.Analyze(ctx, core.Input{
		Network:          s.mined.Mined.Network,
		Customers:        s.camp.Network.Customers,
		Traces:           &s.st,
		ISTransitions:    s.mined.Listener.ISTransitions,
		IPTransitions:    s.mined.Listener.IPTransitions,
		Start:            s.camp.Config.Start,
		End:              s.camp.Config.End,
		ListenerOffline:  s.camp.ListenerOffline,
		Tickets:          s.mined.Tickets,
		IncludeMultiLink: multiLink,
		Parallelism:      1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkAblationLinkIDs regenerates the footnote-1 experiment.
// The campaign is simulated once; each iteration measures the
// multi-link-inclusive comparison over reused extraction state.
func BenchmarkAblationLinkIDs(b *testing.B) {
	b.ReportAllocs()
	cfg := benchMonthConfig(1)
	cfg.EnableLinkIDs = true
	s := newAblationBench(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := s.analyze(b, true)
		b.ReportMetric(float64(len(a.AnalyzedLinks)), "links")
	}
}

// BenchmarkAblationNoBlackout measures the comparison with the
// correlated-loss model disabled, over a campaign simulated once.
func BenchmarkAblationNoBlackout(b *testing.B) {
	b.ReportAllocs()
	cfg := benchMonthConfig(1)
	im := netsim.DefaultImpairments()
	im.BlackoutBase, im.BlackoutFlap, im.BlackoutLong, im.DownBlackoutProb = 0, 0, 0, 0
	cfg.Impair = &im
	s := newAblationBench(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := s.analyze(b, false)
		b.ReportMetric(noneFraction(a), "none-frac")
	}
}

// TestAblationAnalyzeAllocBudget pins the reworked ablation loop: a
// warmed iteration must stay under a small fixed multiple of the
// transition count, i.e. the comparison's own result slices — never
// the ~600k allocs/op the old simulate-per-iteration loop paid.
func TestAblationAnalyzeAllocBudget(t *testing.T) {
	cfg := benchMonthConfig(1)
	cfg.EnableLinkIDs = true
	s := newAblationBench(t, cfg)
	transitions := len(s.st.PerRouterAdj) + len(s.st.MergedAdj) + len(s.st.MergedPhysical) +
		len(s.mined.Listener.ISTransitions) + len(s.mined.Listener.IPTransitions)
	if transitions == 0 {
		t.Fatal("no transitions")
	}
	avg := testing.AllocsPerRun(3, func() {
		a := s.analyze(t, true)
		if len(a.AnalyzedLinks) == 0 {
			t.Fatal("no analyzed links")
		}
	})
	// The comparison legitimately allocates its filtered streams,
	// reconstructions, and flap indexes — all proportional to the
	// transition count — plus fixed stage overhead. Six per
	// transition is comfortable headroom over the measured ~2.
	budget := 6*float64(transitions) + 2048
	if avg > budget {
		t.Errorf("warmed ablation iteration allocates %.0f per op over %d transitions, budget %.0f",
			avg, transitions, budget)
	}
}

func noneFraction(a *Analysis) float64 {
	t3 := a.Table3()
	total := t3.Down.Total() + t3.Up.Total()
	if total == 0 {
		return 0
	}
	return float64(t3.Down.None+t3.Up.None) / float64(total)
}
