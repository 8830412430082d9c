package netfail

// One analysis, four ways in. The paper's method is differential —
// syslog judged against IS-IS — and only means something if every path
// through netfail is the same analysis. These tests feed one seeded
// campaign to the driver through each of its sources and require the
// same bytes out.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"netfail/internal/netsim"
	"netfail/internal/serve"
	"netfail/internal/store"
	"netfail/internal/syslog"
)

// listSource replays a fixed record list into the supervisor, as
// netfail-serve's replay mode does.
type listSource struct {
	name string
	recs []serve.Record
}

func (s *listSource) Name() string { return s.name }

func (s *listSource) Run(_ context.Context, emit func(serve.Record) error) error {
	for _, r := range s.recs {
		if err := emit(r); err != nil {
			return err
		}
	}
	return nil
}

// serveFlatDir runs a flat campaign directory through the ingest
// supervisor — queues, WAL, handler — into a driver, the way
// netfail-serve's replay mode does, and returns the driver's study.
func serveFlatDir(t *testing.T, dir string, lenient bool, opts ...Option) *Study {
	t.Helper()
	ctx := context.Background()
	skeleton, _, err := ReadCampaignDir(ctx, dir, lenient)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDriver(skeleton, lenient, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sys := &listSource{name: "syslog"}
	f, err := os.Open(filepath.Join(dir, SyslogLogName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := syslog.ScanLog(f, func(_ int, line []byte) error {
		sys.recs = append(sys.recs, serve.Record{Time: skeleton.Campaign.Config.Start, Data: bytes.Clone(line)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	lf, err := os.Open(filepath.Join(dir, LSPLogName))
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	lsps, err := netsim.ReadLSPLog(lf)
	if err != nil {
		t.Fatal(err)
	}
	isis := &listSource{name: "isis"}
	for _, c := range lsps {
		isis.recs = append(isis.recs, serve.Record{Time: c.Time, Data: c.Data})
	}
	handler := serve.HandlerFunc(func(rec serve.Record) error {
		if rec.Source == "syslog" {
			return d.Syslog(rec.Data)
		}
		return d.LSP(rec.Time, rec.Data)
	})
	sup, _, err := serve.New(serve.Config{Dir: t.TempDir()}, handler, sys, isis)
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Run(ctx); err != nil {
		t.Fatal(err)
	}
	study, err := d.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return study
}

// TestEverySourceSameReport is the differential table: one 240-day
// campaign × {memory, flat directory, single-shard capture directory,
// served through the ingest handler} × {strict, lenient} × Parallelism
// {1, 0} must render the same report bytes, with nothing salvaged.
func TestEverySourceSameReport(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	ctx := context.Background()
	cfg := longConfig(1)
	camp, err := Simulate(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	flatDir, capDir := t.TempDir(), t.TempDir()
	writeFlatCampaign(t, flatDir, camp)
	if _, err := SimulateToCapture(ctx, cfg, FabricSpec{}, capDir); err != nil {
		t.Fatal(err)
	}

	fromDir := func(dir string) func(*testing.T, bool, int) *Study {
		return func(t *testing.T, lenient bool, par int) *Study {
			study, reports, err := AnalyzeCaptureDir(ctx, dir, lenient, WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			if lenient && len(reports) == 0 {
				t.Error("lenient analysis returned no salvage accounting")
			}
			for _, r := range reports {
				if !r.Report.Clean() {
					t.Errorf("salvage on a clean campaign: %s: %s", r.Name, r.Report)
				}
			}
			return study
		}
	}
	sources := []struct {
		name  string
		study func(t *testing.T, lenient bool, par int) *Study
	}{
		{"memory", func(t *testing.T, _ bool, par int) *Study {
			study, err := Analyze(ctx, camp, WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			return study
		}},
		{"flat", fromDir(flatDir)},
		{"capture", fromDir(capDir)},
		{"served", func(t *testing.T, lenient bool, par int) *Study {
			return serveFlatDir(t, flatDir, lenient, WithParallelism(par))
		}},
	}

	var want []byte
	for _, src := range sources {
		for _, lenient := range []bool{false, true} {
			for _, par := range []int{1, 0} {
				t.Run(fmt.Sprintf("%s/lenient=%t/parallelism=%d", src.name, lenient, par), func(t *testing.T) {
					var got bytes.Buffer
					if err := src.study(t, lenient, par).Report(&got); err != nil {
						t.Fatal(err)
					}
					if want == nil {
						want = got.Bytes()
						if len(want) == 0 {
							t.Fatal("empty report")
						}
						return
					}
					if !bytes.Equal(got.Bytes(), want) {
						t.Fatalf("report differs from the in-RAM sequential report\n%s",
							firstDiff(string(want), got.String()))
					}
				})
			}
		}
	}
}

// TestEverySourceSameCounters pins the metric contract: whichever
// source fed the driver, each counter is emitted under the same name
// exactly once, and syslog.messages is the number of messages received.
func TestEverySourceSameCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	ctx := context.Background()
	cfg := smallConfig(9)
	camp, err := Simulate(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	flatDir, capDir := t.TempDir(), t.TempDir()
	writeFlatCampaign(t, flatDir, camp)
	if _, err := SimulateToCapture(ctx, cfg, FabricSpec{}, capDir); err != nil {
		t.Fatal(err)
	}

	// counters runs one source with a registry attached and returns
	// its counter values; the stage.<name>.mallocs gauges are left out
	// (an in-RAM campaign has no load stage).
	counters := func(run func(Option) error) map[string]int64 {
		t.Helper()
		reg := NewMetrics()
		if err := run(WithMetrics(reg)); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]int64)
		for _, m := range reg.Snapshot() {
			if !strings.HasPrefix(m.Name, "stage.") {
				out[m.Name] = m.Value
			}
		}
		return out
	}
	fromDir := func(dir string) func(Option) error {
		return func(o Option) error {
			_, _, err := AnalyzeCaptureDir(ctx, dir, false, o, WithStoreDir(filepath.Join(t.TempDir(), "store")))
			return err
		}
	}
	want := counters(func(o Option) error {
		_, err := Analyze(ctx, camp, o, WithStoreDir(filepath.Join(t.TempDir(), "store")))
		return err
	})
	names := func(m map[string]int64) string {
		var ns []string
		for n := range m {
			ns = append(ns, n)
		}
		sort.Strings(ns)
		return strings.Join(ns, " ")
	}
	for _, name := range []string{"mine.config_files", "syslog.messages", "listener.lsps", "listener.stale",
		"transitions.listener.is", "drops.listener.decode_errors", "store.messages"} {
		if _, ok := want[name]; !ok {
			t.Errorf("in-RAM run emitted no %s counter (has: %s)", name, names(want))
		}
	}
	if got := want["syslog.messages"]; got != int64(camp.Counts.SyslogReceived) {
		t.Errorf("in-RAM syslog.messages = %d, want the %d messages received", got, camp.Counts.SyslogReceived)
	}
	for _, src := range []struct {
		name string
		run  func(Option) error
	}{{"flat", fromDir(flatDir)}, {"capture", fromDir(capDir)}} {
		got := counters(src.run)
		if names(got) != names(want) {
			t.Errorf("%s counter names differ from in-RAM:\n got: %s\nwant: %s", src.name, names(got), names(want))
		}
		for n, v := range want {
			if got[n] != v {
				t.Errorf("%s: %s = %d, in-RAM run has %d", src.name, n, got[n], v)
			}
		}
	}
}

// TestStoreFailureStopsEverySource: a store that cannot take the
// syslog messages is an error from every source, not a run that exits
// clean with a store missing them. Unparseable lines are still only
// accounted.
func TestStoreFailureStopsEverySource(t *testing.T) {
	ctx := context.Background()
	cfg := smallConfig(6)
	camp, err := Simulate(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	flatDir, capDir := t.TempDir(), t.TempDir()
	writeFlatCampaign(t, flatDir, camp)
	log := filepath.Join(flatDir, SyslogLogName)
	lines, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(log, append([]byte("not a syslog line\n"), lines...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateToCapture(ctx, cfg, FabricSpec{}, capDir); err != nil {
		t.Fatal(err)
	}
	// blocked is a store directory whose first message segment cannot
	// be created: a directory sits where the file goes.
	blocked := func() Option {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, store.MessageSegmentName(0)), 0o755); err != nil {
			t.Fatal(err)
		}
		return WithStoreDir(dir)
	}
	if _, err := Analyze(ctx, camp, blocked()); err == nil {
		t.Error("memory: analysis succeeded over a store that takes no messages")
	}
	for _, dir := range []string{flatDir, capDir} {
		for _, lenient := range []bool{false, true} {
			if _, _, err := AnalyzeCaptureDir(ctx, dir, lenient, blocked()); err == nil {
				t.Errorf("%s lenient=%t: analysis succeeded over a store that takes no messages", dir, lenient)
			}
		}
	}
	_, reports, err := AnalyzeCaptureDir(ctx, flatDir, false, WithStoreDir(t.TempDir()))
	if err != nil {
		t.Fatalf("flat directory with one unparseable line: %v", err)
	}
	if len(reports) != 1 || reports[0].Report.Skipped != 1 {
		t.Errorf("unparseable line accounting = %+v, want one entry with one line skipped", reports)
	}
}

// TestDriverWithoutWindowCounts pins netfail-serve's live mode: a
// driver with no campaign window produces no report, so it must count
// syslog messages rather than hold them for one.
func TestDriverWithoutWindowCounts(t *testing.T) {
	ctx := context.Background()
	camp, err := Simulate(ctx, smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	mined, err := MineConfigs(camp)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDriver(&Study{Mined: mined}, false)
	if err != nil {
		t.Fatal(err)
	}
	var line []byte
	for _, m := range camp.Syslog {
		line = m.AppendRender(line[:0])
		if err := d.Syslog(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Syslog([]byte("not a syslog line")); err == nil {
		t.Error("garbage line parsed")
	}
	for _, c := range camp.LSPLog {
		if err := d.LSP(c.Time, c.Data); err != nil {
			t.Fatal(err)
		}
	}
	want := fmt.Sprintf("%d syslog messages (1 unparseable), %d LSPs,", len(camp.Syslog), len(camp.LSPLog))
	if got := d.Summary(); !strings.HasPrefix(got, want) {
		t.Errorf("Summary = %q, want it to start %q", got, want)
	}
	if d.ext != nil {
		t.Error("driver without a window has an extractor to retain transitions in")
	}
	if _, err := d.Finish(ctx); err == nil {
		t.Error("Finish produced a study with no observation window")
	}
}

// TestSummaryAcrossFailedFinish pins Summary on both sides of a Finish
// that does not complete: the listener is retired by then and the
// study never gets its result, so the line must come from what the
// driver holds — and cost its string, not a copy of the listener's
// streams.
func TestSummaryAcrossFailedFinish(t *testing.T) {
	camp, mined := benchMonthMined(t)
	d, err := NewDriver(&Study{Campaign: camp, Mined: mined}, false)
	if err != nil {
		t.Fatal(err)
	}
	var line []byte
	for _, m := range camp.Syslog {
		line = m.AppendRender(line[:0])
		if err := d.Syslog(line); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range camp.LSPLog {
		if err := d.LSP(c.Time, c.Data); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Summary()
	want := fmt.Sprintf("%d syslog messages (0 unparseable), %d LSPs, ", len(camp.Syslog), len(camp.LSPLog))
	if !strings.HasPrefix(before, want) || strings.Contains(before, " 0 IS transitions") {
		t.Fatalf("Summary = %q, want it to start %q and count IS transitions", before, want)
	}
	pinAllocs(t, "Summary on a warm driver", 1, func() { d.Summary() })

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.Finish(ctx); err == nil {
		t.Fatal("Finish under a canceled context produced a study")
	}
	if after := d.Summary(); after != before {
		t.Errorf("Summary after the failed Finish = %q, before it %q", after, before)
	}
	pinAllocs(t, "Summary after a failed Finish", 1, func() { d.Summary() })
}
