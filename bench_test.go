package netfail

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (see DESIGN.md §4 for the experiment index):
//
//	BenchmarkTable1 … BenchmarkTable7   Tables 1-7
//	BenchmarkFigure1                    Figure 1a-c (CPE CDFs)
//	BenchmarkWindowSweep                §3.4 "knee at ten seconds"
//	BenchmarkPolicyAblation             §4.3 strategy comparison
//
// plus the pipeline-stage benchmarks (simulate, mine, listen,
// extract, analyze) that dominate regeneration cost. Each table
// benchmark runs over the full 13-month CENIC-scale study, prepared
// once outside the timer.
//
//	go test -bench=. -benchmem

import (
	"context"
	"io"
	"sync"
	"testing"
	"time"

	"netfail/internal/config"
	"netfail/internal/core"
	"netfail/internal/listener"
	"netfail/internal/netsim"
	"netfail/internal/report"
	"netfail/internal/syslog"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

var (
	benchOnce  sync.Once
	benchStudy *Study
	benchErr   error
)

// benchFullStudy prepares the 13-month CENIC-scale study shared by the
// table benchmarks and their alloc pins (alloc_test.go).
func benchFullStudy(tb testing.TB) *Study {
	tb.Helper()
	benchOnce.Do(func() {
		benchStudy, benchErr = Run(context.Background(), SimulationConfig{Seed: 1})
	})
	if benchErr != nil {
		tb.Fatal(benchErr)
	}
	return benchStudy
}

func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	s := benchFullStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t1 := s.Analysis.Table1(s.Campaign.Archive.FileCount(), s.Campaign.Counts.LSPUpdates)
		if t1.CoreRouters == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	s := benchFullStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t2 := s.Analysis.Table2()
		if t2.ISISDownVsIS == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	b.ReportAllocs()
	s := benchFullStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t3 := s.Analysis.Table3()
		if t3.Down.Total() == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	b.ReportAllocs()
	s := benchFullStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t4 := s.Analysis.Table4()
		if t4.ISISFailures == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	b.ReportAllocs()
	s := benchFullStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t5 := s.Analysis.Table5()
		if t5.KSDuration.N1 == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable6(b *testing.B) {
	b.ReportAllocs()
	s := benchFullStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t6 := s.Analysis.Table6()
		if t6.TotalDown() == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable7(b *testing.B) {
	b.ReportAllocs()
	s := benchFullStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t7 := s.Analysis.Table7()
		if t7.ISISEvents == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	b.ReportAllocs()
	s := benchFullStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := s.Analysis.Figure1()
		if len(fig.FailureDuration[0].X) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkWindowSweep(b *testing.B) {
	b.ReportAllocs()
	s := benchFullStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := s.Analysis.WindowKnee(nil)
		if len(pts) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

func BenchmarkPolicyAblation(b *testing.B) {
	b.ReportAllocs()
	s := benchFullStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.Analysis.PolicyAblation()
		if len(rows) != 3 {
			b.Fatal("bad ablation")
		}
	}
}

// benchFullReport returns one op: every section of the 13-month
// study's report computed and rendered on a pool of the given size.
// It calls report.FullReport, not Study.Report, which would answer
// from the study's tables after its first call.
func benchFullReport(tb testing.TB, parallelism int) func() {
	s := benchFullStudy(tb)
	return func() {
		if err := report.FullReport(context.Background(), io.Discard, s.Analysis,
			s.Campaign.Archive.FileCount(), s.Campaign.Counts.LSPUpdates, parallelism); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkFullReport(b *testing.B) {
	b.ReportAllocs()
	op := benchFullReport(b, benchFullStudy(b).Analysis.In.Parallelism)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkFullReportSequential pins the report fan-out to one worker;
// the delta against BenchmarkFullReport is the parallel speedup.
// Output is byte-identical at every worker count.
func BenchmarkFullReportSequential(b *testing.B) {
	b.ReportAllocs()
	op := benchFullReport(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// Pipeline-stage benchmarks over a one-month CENIC-scale campaign.

func benchMonthConfig(seed int64) SimulationConfig {
	return SimulationConfig{
		Seed:            seed,
		Start:           time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC),
		End:             time.Date(2011, 2, 1, 0, 0, 0, 0, time.UTC),
		ListenerOffline: []trace.Interval{},
	}
}

// reportPerEvent adds the two figures that make a simulator benchmark
// comparable across campaign sizes: records captured per op, and
// nanoseconds per record.
func reportPerEvent(b *testing.B, events int) {
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

func BenchmarkSimulateMonth(b *testing.B) {
	b.ReportAllocs()
	events := 0
	for i := 0; i < b.N; i++ {
		camp, err := Simulate(context.Background(), benchMonthConfig(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if len(camp.Syslog) == 0 {
			b.Fatal("empty campaign")
		}
		events += len(camp.Syslog) + len(camp.LSPLog)
	}
	reportPerEvent(b, events)
}

// benchSixtyDays simulates the 60-day seed-1 campaign the read-path
// benchmarks share: BenchmarkTokenizeCampaign tokenizes its syslog
// stream and BenchmarkMine mines its config archive.
func benchSixtyDays(tb testing.TB) *Campaign {
	tb.Helper()
	cfg := benchMonthConfig(1)
	cfg.End = cfg.Start.Add(60 * 24 * time.Hour)
	camp, err := Simulate(context.Background(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return camp
}

// BenchmarkTokenizeCampaign reads the campaign's rendered syslog lines
// the way a Driver does — one fresh tokenizer, the rolling year
// reference — so each op pays for filling the intern tables once.
func BenchmarkTokenizeCampaign(b *testing.B) {
	camp := benchSixtyDays(b)
	lines := make([][]byte, len(camp.Syslog))
	for i, m := range camp.Syslog {
		lines[i] = m.AppendRender(nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok := syslog.NewTokenizer()
		var m syslog.Message
		rolling := camp.Config.Start
		for _, line := range lines {
			if err := tok.ParseBytes(line, rolling, &m); err != nil {
				b.Fatal(err)
			}
			if m.Timestamp.After(rolling) {
				rolling = m.Timestamp
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lines)), "ns/line")
}

// BenchmarkMine mines the campaign's config archive: every router's
// latest revision parsed, interfaces paired into links.
func BenchmarkMine(b *testing.B) {
	camp := benchSixtyDays(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mined, err := config.Mine(camp.Archive)
		if err != nil {
			b.Fatal(err)
		}
		if len(mined.Network.Links) == 0 {
			b.Fatal("no links mined")
		}
	}
}

// benchMonthMined simulates the one-month campaign and mines its
// configs: the fixture of the listener and extraction benchmarks and
// their alloc pins.
func benchMonthMined(tb testing.TB) (*Campaign, *config.Mined) {
	tb.Helper()
	camp, err := Simulate(context.Background(), benchMonthConfig(1))
	if err != nil {
		tb.Fatal(err)
	}
	mined, err := MineConfigs(camp)
	if err != nil {
		tb.Fatal(err)
	}
	return camp, mined
}

// benchListenerReplay returns one op — the month's LSPs through a
// fresh listener — and the bytes it replays.
func benchListenerReplay(tb testing.TB) (op func(), bytesTotal int64) {
	camp, mined := benchMonthMined(tb)
	for _, c := range camp.LSPLog {
		bytesTotal += int64(len(c.Data))
	}
	return func() {
		l := listener.New(mined.Network)
		for _, c := range camp.LSPLog {
			if err := l.Process(c.Time, c.Data); err != nil {
				tb.Fatal(err)
			}
		}
		if len(l.Results().ISTransitions) == 0 {
			tb.Fatal("no transitions")
		}
	}, bytesTotal
}

func BenchmarkListenerReplay(b *testing.B) {
	b.ReportAllocs()
	op, bytesTotal := benchListenerReplay(b)
	b.SetBytes(bytesTotal)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// benchSyslogExtract returns one steady-state extraction op and the
// messages it extracts: a long-lived (Extractor, result) pair reusing
// resolver, scratch, and result slices across captures, as the
// streaming ingest path holds one per topology. Warm-up runs grow the
// scratch so the op allocates nothing per message.
func benchSyslogExtract(tb testing.TB) (op func(), msgs int) {
	camp, mined := benchMonthMined(tb)
	ex := core.NewExtractor(mined.Network)
	var st core.SyslogTraces
	op = func() {
		ex.ExtractInto(context.Background(), camp.Syslog, 60*time.Second, 1, &st)
		if len(st.MergedAdj) == 0 {
			tb.Fatal("no transitions")
		}
	}
	for i := 0; i < 2; i++ {
		op()
	}
	return op, len(camp.Syslog)
}

func BenchmarkSyslogExtract(b *testing.B) {
	b.ReportAllocs()
	op, msgs := benchSyslogExtract(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(msgs), "msgs/op")
}

func BenchmarkAnalyzeMonth(b *testing.B) {
	b.ReportAllocs()
	camp, err := Simulate(context.Background(), benchMonthConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		study, err := Analyze(context.Background(), camp)
		if err != nil {
			b.Fatal(err)
		}
		if study.Analysis == nil {
			b.Fatal("no analysis")
		}
	}
}

// BenchmarkAnalyzeMonthTraced is BenchmarkAnalyzeMonth with the full
// observability stack attached: a tracer, a metrics registry, and a
// progress stream. The ns/op delta against BenchmarkAnalyzeMonth is
// the cost of enabling observability. (With no consumers attached the
// instrumentation reduces to nil-receiver no-ops, so the plain
// benchmark doubles as the disabled-obs baseline.)
func BenchmarkAnalyzeMonthTraced(b *testing.B) {
	b.ReportAllocs()
	camp, err := Simulate(context.Background(), benchMonthConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		study, err := Analyze(context.Background(), camp,
			WithTracer(NewTracer()), WithMetrics(NewMetrics()),
			WithProgress(func(ProgressEvent) {}))
		if err != nil {
			b.Fatal(err)
		}
		if study.Analysis == nil {
			b.Fatal("no analysis")
		}
	}
}

// BenchmarkAnalyzeMonthSequential is the Parallelism: 1 reference for
// BenchmarkAnalyzeMonth (which runs one worker per CPU).
func BenchmarkAnalyzeMonthSequential(b *testing.B) {
	b.ReportAllocs()
	camp, err := Simulate(context.Background(), benchMonthConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		study, err := Analyze(context.Background(), camp, WithParallelism(1))
		if err != nil {
			b.Fatal(err)
		}
		if study.Analysis == nil {
			b.Fatal("no analysis")
		}
	}
}

// benchIsolationSweep returns one op: the IS-IS half of Table 7 over
// the 13-month study, graph built outside it.
func benchIsolationSweep(tb testing.TB) func() {
	s := benchFullStudy(tb)
	netWithCustomers := *s.Mined.Network
	netWithCustomers.Customers = s.Campaign.Network.Customers
	g := topo.NewGraph(&netWithCustomers)
	return func() {
		events := core.IsolationEvents(g, netWithCustomers.Customers,
			s.Analysis.ISISFailures, s.Campaign.Config.End)
		if len(events) == 0 {
			tb.Fatal("no events")
		}
	}
}

func BenchmarkIsolationSweep(b *testing.B) {
	b.ReportAllocs()
	op := benchIsolationSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkCampaignGeneration(b *testing.B) {
	b.ReportAllocs()
	// Topology + workload generation only (no observation replay).
	spec := topo.DefaultSpec()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := topo.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(n.Links) == 0 {
			b.Fatal("no links")
		}
	}
}

func BenchmarkRefreshFullDay(b *testing.B) {
	b.ReportAllocs()
	// One day with every periodic LSP refresh materialized: the
	// listener-side cost of Table 1's 11M updates, scaled down.
	cfg := benchMonthConfig(1)
	cfg.End = cfg.Start.Add(24 * time.Hour)
	cfg.RefreshMode = netsim.RefreshFull
	events := 0
	for i := 0; i < b.N; i++ {
		camp, err := Simulate(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		mined, err := MineConfigs(camp)
		if err != nil {
			b.Fatal(err)
		}
		l := listener.New(mined.Network)
		for _, c := range camp.LSPLog {
			if err := l.Process(c.Time, c.Data); err != nil {
				b.Fatal(err)
			}
		}
		events += len(camp.Syslog) + len(camp.LSPLog)
	}
	reportPerEvent(b, events)
}
