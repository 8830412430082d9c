package netfail

// One analysis, every way in: the paper's method is differential, and
// only means something if every path through netfail is the same
// analysis. This file is the one table of which paths are proven equal.
// A row is a source (the in-RAM campaign, a flat directory, a
// single-shard capture, a sharded capture of the backbone plus two
// pods, the campaign served through the ingest supervisor) ×
// strict/lenient × Parallelism {1, 0, 2, 8} × no observer or tracer +
// metrics + progress, over campaigns simulated once per test binary.
// Every row must render the in-RAM sequential report byte for byte (the
// sharded capture, a bigger campaign, its own), write a store whose
// answers equal the oracle helpers' (store_oracle_test.go), emit the
// same counters, salvage nothing yet account for every record written,
// and keep the domain invariants. Columns hold simulation and
// cancellation to the same standard. The tests below select its rows.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"netfail/internal/capture"
	"netfail/internal/netsim"
	"netfail/internal/report"
	"netfail/internal/serve"
	"netfail/internal/store"
	"netfail/internal/syslog"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// smallConfig is a quick campaign: a small network over 45 days.
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

// Campaign lengths: the short one, and one long enough that a
// year-less RFC 3164 stamp resolved against the campaign start instead
// of a rolling reference lands in the wrong year.
const shortDays, longDays = 45, 240

// shardedFabric is the sharded capture's two pods beside the backbone.
var shardedFabric = FabricSpec{Domains: 2, Spines: 2, Leaves: 3, Metric: 10}

// writeFlat writes camp as the flat campaign directory netfail-sim
// writes: the shared metadata plus the two event logs.
func writeFlat(dir string, camp *Campaign) error {
	return WriteCampaignMeta(dir, camp,
		CampaignFile{SyslogLogName, func(w io.Writer) error { return syslog.WriteLog(w, camp.Syslog) }},
		CampaignFile{LSPLogName, func(w io.Writer) error { return netsim.WriteLSPLog(w, camp.LSPLog) }},
	)
}

// fixtureDir holds every fixture's files; TestMain removes it.
var fixtureDir = sync.OnceValues(func() (string, error) { return os.MkdirTemp("", "netfail-fixtures-") })

// scratch is a fresh directory under fixtureDir.
func scratch() (string, error) {
	root, err := fixtureDir()
	if err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "")
}

// The sources: the in-RAM campaign, three readers of a fixture's forms,
// and the supervisor, which reads the flat directory's metadata.
var sources = []string{"memory", "flat", "capture", "sharded", "served"}

// A fixture is one seeded campaign in RAM and, each written on first
// use, as a flat directory, a single-shard capture and a sharded one.
type fixture struct {
	cfg  SimulationConfig
	camp *Campaign

	mu    sync.Mutex
	dirs  map[string]string // the forms written, by source; guarded by mu
	refMu sync.Mutex
	refs  map[string]*reference // "memory" (the backbone's) and "sharded"; guarded by refMu
}

var fixtures = struct {
	sync.Mutex
	m map[[2]int64]*fixture
}{m: map[[2]int64]*fixture{}}

// campaign returns the fixture for seed observed for days, simulated
// once per test binary.
func campaign(t testing.TB, seed int64, days int) *fixture {
	t.Helper()
	fixtures.Lock()
	defer fixtures.Unlock()
	key := [2]int64{seed, int64(days)}
	if fx := fixtures.m[key]; fx != nil {
		return fx
	}
	fx := &fixture{cfg: smallConfig(seed), dirs: map[string]string{}, refs: map[string]*reference{}}
	fx.cfg.End = fx.cfg.Start.AddDate(0, 0, days)
	// Router-wide maintenance fails every link of a router at one
	// instant: the merged syslog streams then hold equal-time runs,
	// whose order every source must reproduce.
	w := netsim.DefaultWorkload()
	w.MaintenancePerRouterYear, w.MaintenanceMin, w.MaintenanceMax = 12, 10*time.Minute, time.Hour
	fx.cfg.Workload = &w
	var err error
	if fx.camp, err = Simulate(context.Background(), fx.cfg); err != nil {
		t.Fatal(err)
	}
	fixtures.m[key] = fx
	return fx
}

// dir returns the fixture in form src (flat, capture or sharded),
// writing it on first use.
func (fx *fixture) dir(t testing.TB, src string) string {
	t.Helper()
	fx.mu.Lock()
	defer fx.mu.Unlock()
	if dir, ok := fx.dirs[src]; ok {
		return dir
	}
	dir, err := scratch()
	if err == nil && src == "flat" {
		err = writeFlat(dir, fx.camp)
	} else if err == nil {
		fabric := map[string]FabricSpec{"sharded": shardedFabric}[src]
		_, err = SimulateToCapture(context.Background(), fx.cfg, fabric, dir)
	}
	if err != nil {
		t.Fatal(err)
	}
	fx.dirs[src] = dir
	return dir
}

// analyze feeds the fixture's campaign to the driver through src;
// scratch is a directory the source may keep state in.
func (fx *fixture) analyze(t testing.TB, ctx context.Context, src string, lenient bool, scratch string, opts ...Option) (*Study, []CaptureSalvage, error) {
	switch src {
	case "memory":
		// An in-RAM campaign has no serialized form to salvage: its
		// lenient rows run the one path there is.
		st, err := Analyze(ctx, fx.camp, opts...)
		return st, nil, err
	case "served":
		return fx.served(ctx, fx.dir(t, "flat"), lenient, scratch, opts...)
	}
	return AnalyzeCaptureDir(ctx, fx.dir(t, src), lenient, opts...)
}

// written is how many records each component src salvages holds, as
// the fixture wrote them (a capture's, as its writer counted them).
func (fx *fixture) written(t testing.TB, src string) map[string]int {
	switch src {
	case "memory":
		return map[string]int{}
	case "flat":
		return map[string]int{manifestName: 1, SyslogLogName: len(fx.camp.Syslog), LSPLogName: len(fx.camp.LSPLog)}
	case "served": // the LSPs reach the driver as records, not a log
		return map[string]int{manifestName: 1, "syslog": len(fx.camp.Syslog)}
	}
	out := map[string]int{manifestName: 1, filepath.Join(CaptureDirName, capture.ManifestName): 1}
	for _, sh := range fx.captureManifest(t, src).Shards {
		sys := filepath.Join(CaptureDirName, sh.Name, capture.SyslogSegment)
		out[sys], out[sys+" lines"] = int(sh.SyslogRecords), int(sh.SyslogRecords)
		out[filepath.Join(CaptureDirName, sh.Name, capture.LSPSegment)] = int(sh.LSPRecords)
	}
	return out
}

func (fx *fixture) captureManifest(t testing.TB, src string) *capture.Manifest {
	t.Helper()
	cm, err := capture.ReadManifestDir(filepath.Join(fx.dir(t, src), CaptureDirName))
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

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

// served pushes the campaign's records through the ingest supervisor —
// queues, WAL, handler — into a driver over the flat directory dir's
// metadata, as netfail-serve's replay mode does.
func (fx *fixture) served(ctx context.Context, dir string, lenient bool, stateDir string, opts ...Option) (*Study, []CaptureSalvage, error) {
	skeleton, reports, err := ReadCampaignDir(fold(opts).instrument(ctx), dir, lenient)
	if err != nil {
		return nil, nil, err
	}
	d, err := NewDriver(skeleton, lenient, opts...)
	if err != nil {
		return nil, nil, err
	}
	d.reports = reports
	sys, isis := &listSource{name: "syslog"}, &listSource{name: "isis"}
	for _, m := range fx.camp.Syslog {
		sys.recs = append(sys.recs, serve.Record{Time: fx.cfg.Start, Data: m.AppendRender(nil)})
	}
	for _, c := range fx.camp.LSPLog {
		isis.recs = append(isis.recs, serve.Record{Time: c.Time, Data: c.Data})
	}
	sup, _, err := serve.New(serve.Config{Dir: stateDir}, serve.HandlerFunc(func(rec serve.Record) error {
		if rec.Source == "syslog" {
			return d.Syslog(rec.Data)
		}
		return d.LSP(rec.Time, rec.Data)
	}), sys, isis)
	if err == nil {
		err = sup.Run(ctx)
	}
	if err != nil {
		return nil, nil, err
	}
	study, err := d.Finish(ctx)
	return study, d.reports, err
}

// A row is one way through the table.
type row struct {
	src               string
	lenient, observed bool
	par               int
}

// outcome is what one row produced.
type outcome struct {
	study    *Study
	salvage  []CaptureSalvage
	report   []byte
	storeDir string
	tracer   *Tracer
	// counters are an observed row's, less the stage.<name>.mallocs
	// gauges (an in-RAM campaign has no load stage).
	counters map[string]int64
}

// run feeds the fixture through r's source with a store attached, and
// renders the report with the same observers.
func (r row) run(t *testing.T, fx *fixture) *outcome {
	t.Helper()
	dir := t.TempDir()
	o, metrics := &outcome{storeDir: filepath.Join(dir, "store")}, NewMetrics()
	opts := []Option{WithParallelism(r.par), WithStoreDir(o.storeDir)}
	if r.observed {
		o.tracer, o.counters = NewTracer(), map[string]int64{}
		opts = append(opts, WithTracer(o.tracer), WithMetrics(metrics), WithProgress(func(ProgressEvent) {}))
	}
	var err error
	if o.study, o.salvage, err = fx.analyze(t, context.Background(), r.src, r.lenient, dir, opts...); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.study.ReportContext(context.Background(), &buf, opts...); err != nil {
		t.Fatal(err)
	}
	o.report = buf.Bytes()
	if r.observed {
		for _, m := range metrics.Snapshot() {
			if !strings.HasPrefix(m.Name, "stage.") {
				o.counters[m.Name] = m.Value
			}
		}
	}
	return o
}

// reference is what every row over one campaign must reproduce: the
// sequential observed strict row of the in-RAM source (the sharded
// capture's, for its rows) and the oracle helpers' store answers.
type reference struct {
	*outcome
	links       []store.LinkEntry
	failures    []store.FailureRecord
	transitions []store.TransitionRecord
	tables      store.Tables
	// messages are the backbone's, the first message segment's; segments
	// counts each segment's records.
	messages []store.MessageRecord
	segments []int64
}

// reference returns the reference the rows of src are held to,
// computing it on first use.
func (fx *fixture) reference(t *testing.T, src string) *reference {
	t.Helper()
	if src != "sharded" {
		src = "memory"
	}
	fx.refMu.Lock()
	defer fx.refMu.Unlock()
	if ref := fx.refs[src]; ref != nil {
		return ref
	}
	o := row{src: src, par: 1, observed: true}.run(t, fx)
	a := o.study.Analysis
	ref := &reference{outcome: o, failures: oracleFailures(a), transitions: oracleTransitions(a),
		tables: oracleTables(o.study), messages: oracleMessages(fx.camp), segments: []int64{int64(len(fx.camp.Syslog))}}
	for _, l := range a.AnalyzedLinks {
		ref.links = append(ref.links, store.LinkEntry{ID: l.ID, Class: l.Class})
	}
	if src == "sharded" {
		ref.segments = ref.segments[:0]
		for _, sh := range fx.captureManifest(t, src).Shards {
			ref.segments = append(ref.segments, sh.SyslogRecords)
		}
	}
	fx.refs[src] = ref
	return ref
}

// A selection keeps the rows whose values are among its lists (all, if empty).
type selection struct {
	sources           []string
	lenient, observed []bool
	par               []int
}

var strict, plain = []bool{false}, []bool{false}

func among[T comparable](vs []T, v T) bool { return len(vs) == 0 || slices.Contains(vs, v) }

// runRows checks the rows over fx sel keeps, as parallel subtests named
// source/lenient=…/parallelism=…, a dimension sel fixes to one value
// naming no level; a row and its observed twin share a subtest.
func runRows(t *testing.T, fx *fixture, sel selection) {
	t.Helper()
	n := 0
	for _, src := range sources {
		for _, lenient := range []bool{false, true} {
			for _, par := range []int{1, 0, 2, 8} {
				var rows []row
				for _, observed := range []bool{false, true} {
					if among(sel.sources, src) && among(sel.lenient, lenient) && among(sel.par, par) && among(sel.observed, observed) {
						rows = append(rows, row{src, lenient, observed, par})
					}
				}
				n += len(rows)
				var name []string
				for i, level := range []string{src, fmt.Sprintf("lenient=%t", lenient), fmt.Sprintf("parallelism=%d", par)} {
					if [3]int{len(sel.sources), len(sel.lenient), len(sel.par)}[i] != 1 {
						name = append(name, level)
					}
				}
				check := func(t *testing.T) {
					for _, r := range rows {
						checkRow(t, fx, r)
					}
				}
				if len(rows) > 0 && len(name) == 0 {
					check(t)
				} else if len(rows) > 0 {
					t.Run(strings.Join(name, "/"), func(t *testing.T) { t.Parallel(); check(t) })
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("the selection keeps no row")
	}
}

// checkRow runs one row and holds it to the reference.
func checkRow(t *testing.T, fx *fixture, r row) {
	ref, got := fx.reference(t, r.src), r.run(t, fx)
	st := got.study
	if st.Campaign == nil || st.Mined == nil || st.Listener == nil || st.Tickets == nil || st.Analysis == nil {
		t.Fatalf("incomplete study: %+v", st)
	}
	if p := st.Analysis.In.Parallelism; p != r.par {
		t.Errorf("Analysis.In.Parallelism = %d, the row asked for %d", p, r.par)
	}
	assertSameLines(t, "the reference report", got.report, ref.report)
	// The syslog transition streams begin, in order, with the in-RAM
	// analysis's: shards merge in capture order, the backbone first.
	a, in := st.Analysis, fx.reference(t, "memory").study.Analysis
	for i, got := range [][]trace.Transition{a.SyslogAdj, a.SyslogPerRtr, a.SyslogPhysical} {
		want := [][]trace.Transition{in.SyslogAdj, in.SyslogPerRtr, in.SyslogPhysical}[i]
		compareJSON(t, "the first shard's syslog transitions", got[:min(len(got), len(want))], want)
	}
	checkStore(t, got.storeDir, ref)
	checkSalvage(t, fx, r, got.salvage)
	checkInvariants(t, st)
	if !r.observed {
		return
	}
	if !maps.Equal(got.counters, ref.counters) {
		t.Errorf("counters differ from the reference's:\n got: %v\nwant: %v", got.counters, ref.counters)
	}
	// The store's tables are the report's: one computation between them.
	if n := countSpans(got.tracer.Snapshot(), "tables/table5"); n != 1 {
		t.Errorf("Table 5 was computed %d times, want 1", n)
	}
}

// checkSalvage is salvage conservation: nothing is salvaged, and each
// component a lenient row accounts holds, kept plus skipped, the
// records the fixture wrote. Strict rows account only unparseable lines
// (the fixtures have none).
func checkSalvage(t *testing.T, fx *fixture, r row, reports []CaptureSalvage) {
	t.Helper()
	want := fx.written(t, r.src)
	if !r.lenient {
		want = map[string]int{}
	}
	got := map[string]int{}
	for _, rep := range reports {
		if !rep.Report.Clean() {
			t.Errorf("salvage on a clean campaign: %s: %s", rep.Name, rep.Report)
		}
		got[rep.Name] += rep.Report.Kept + rep.Report.Skipped
	}
	if !maps.Equal(got, want) {
		t.Errorf("salvage accounts %v, the fixture wrote %v", got, want)
	}
}

// checkInvariants states the analysis's domain properties: each link's
// failures, from either source, are sorted by start and pairwise
// disjoint, and every syslog failure Table 4 counts is either matched
// or a false positive.
func checkInvariants(t *testing.T, st *Study) {
	t.Helper()
	a := st.Analysis
	for name, fs := range map[string][]Failure{"IS-IS": a.ISISFailures, "syslog": a.SyslogFailures} {
		last := map[topo.LinkID]Failure{}
		for _, f := range fs {
			if p, ok := last[f.Link]; (ok && f.Start.Before(p.End)) || f.End.Before(f.Start) {
				t.Errorf("%s failures of %s: %v follows %v", name, f.Link, f, p)
				break
			}
			last[f.Link] = f
		}
	}
	for name, ts := range map[string][]trace.Transition{"adjacency": a.SyslogAdj, "physical": a.SyslogPhysical} {
		for i := 1; i < len(ts); i++ {
			p, q := ts[i-1], ts[i]
			if p.Time.Equal(q.Time) && (p.Link > q.Link || p.Link == q.Link && (p.Dir > q.Dir || p.Dir == q.Dir && p.Reporter > q.Reporter)) {
				t.Errorf("syslog %s transitions %d and %d share an instant out of (link, direction, reporter) order: %v, %v", name, i-1, i, p, q)
				break
			}
		}
	}
	tables, err := st.Tables(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if t4 := tables.Table4; t4.OverlapFailures+t4.FalsePositives != t4.SyslogFailures {
		t.Errorf("Table 4: %d overlapping + %d false positives != %d syslog failures",
			t4.OverlapFailures, t4.FalsePositives, t4.SyslogFailures)
	}
}

// cancelAt runs fn with a progress option that cancels fn's context as
// stage starts ("" before fn starts); fn must return context.Canceled.
func cancelAt(t *testing.T, what, stage string, fn func(context.Context, Option) error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if stage == "" {
		cancel()
	}
	var once sync.Once
	if err := fn(ctx, WithProgress(func(ev ProgressEvent) {
		if ev.Kind == StageStarted && ev.Stage == stage {
			once.Do(cancel)
		}
	})); !errors.Is(err, context.Canceled) {
		t.Errorf("%s canceled at %q: err = %v, want context.Canceled", what, stage, err)
	}
}

// checkCancellation is the cancellation column: every source's
// analysis, canceled as each stage starts, returns context.Canceled,
// and the worker pools drain rather than leak.
func checkCancellation(t *testing.T, fx *fixture, stages ...string) {
	before := runtime.NumGoroutine()
	for _, src := range sources {
		for _, stage := range stages {
			cancelAt(t, src, stage, func(ctx context.Context, progress Option) error {
				_, _, err := fx.analyze(t, ctx, src, false, t.TempDir(), WithParallelism(4), WithStoreDir(t.TempDir()), progress)
				return err
			})
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines leaked after cancellation: %d before, %d after", before, n)
	}
}

// sameSegments requires the named shard's capture segments to be
// byte-identical in two campaign directories.
func sameSegments(t *testing.T, a, b, shard string) {
	t.Helper()
	for _, name := range []string{capture.SyslogSegment, capture.LSPSegment} {
		x, errX := os.ReadFile(filepath.Join(a, CaptureDirName, shard, name))
		y, errY := os.ReadFile(filepath.Join(b, CaptureDirName, shard, name))
		if err := errors.Join(errX, errY); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			t.Errorf("%s/%s differs between %s and %s", shard, name, a, b)
		}
	}
}

// skipShort skips a test that simulates campaigns under -short.
func skipShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
}

// TestEverySourceSameReport is the whole table over the short campaign,
// and every unsharded source in both modes at Parallelism {1, 0} over
// the long one.
func TestEverySourceSameReport(t *testing.T) {
	skipShort(t)
	runRows(t, campaign(t, 1, shortDays), selection{})
	t.Run("long", func(t *testing.T) {
		runRows(t, campaign(t, 1, longDays), selection{sources: []string{"memory", "flat", "capture", "served"}, par: []int{1, 0}, observed: plain})
	})
}

// TestEverySourceSameCounters: the observed rows, and the reference's
// counters include the contract's, syslog.messages counting the
// messages received.
func TestEverySourceSameCounters(t *testing.T) {
	skipShort(t)
	fx := campaign(t, 1, shortDays)
	ref := fx.reference(t, "memory")
	for _, name := range []string{"mine.config_files", "syslog.messages", "listener.lsps", "listener.stale",
		"transitions.listener.is", "drops.listener.decode_errors", "store.messages"} {
		if _, ok := ref.counters[name]; !ok {
			t.Errorf("the in-RAM run emitted no %s counter (has: %v)", name, ref.counters)
		}
	}
	if got := ref.counters["syslog.messages"]; got != int64(fx.camp.Counts.SyslogReceived) {
		t.Errorf("syslog.messages = %d, want the %d messages received", got, fx.camp.Counts.SyslogReceived)
	}
	runRows(t, fx, selection{par: []int{1}, observed: []bool{true}})
}

// TestSpillReportByteIdenticalToInRAM: the single-shard capture's rows
// at every Parallelism, for a campaign of weeks and one of months.
func TestSpillReportByteIdenticalToInRAM(t *testing.T) {
	skipShort(t)
	for _, days := range []int{shortDays, longDays} {
		t.Run(fmt.Sprintf("%d days", days), func(t *testing.T) {
			runRows(t, campaign(t, 1, days), selection{sources: []string{"capture"}, lenient: strict, observed: plain})
		})
	}
}

// TestSpillCampaignMatchesInRAM: the spilled campaign's counts and
// ground truth equal the in-RAM run's (the capture rows check records).
func TestSpillCampaignMatchesInRAM(t *testing.T) {
	skipShort(t)
	fx := campaign(t, 1, shortDays)
	dir := t.TempDir()
	spilled, err := SimulateToCapture(context.Background(), fx.cfg, FabricSpec{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if spilled.Counts != fx.camp.Counts || !slices.Equal(spilled.GroundTruth, fx.camp.GroundTruth) {
		t.Errorf("spill counts %+v and ground truth differ from the in-RAM run's %+v", spilled.Counts, fx.camp.Counts)
	}
}

// TestShardedSpillDeterministic: the sharded capture's rows, and its
// segments byte-identical whatever the simulator's parallelism.
func TestShardedSpillDeterministic(t *testing.T) {
	skipShort(t)
	fx := campaign(t, 1, shortDays)
	runRows(t, fx, selection{sources: []string{"sharded"}, lenient: strict, observed: plain})
	want := fx.dir(t, "sharded")
	for _, par := range []int{1, 8} {
		dir := t.TempDir()
		camp, err := SimulateToCapture(context.Background(), fx.cfg, shardedFabric, dir, WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		if camp.Counts.GroundTruthFailures != len(camp.GroundTruth) {
			t.Fatalf("parallelism %d: inconsistent ground-truth count", par)
		}
		for shard := range shardedFabric.Domains + 1 {
			sameSegments(t, want, dir, fmt.Sprintf("shard-%04d", shard))
		}
	}
}

// TestShardedBackboneShardMatchesSingleShard: domain 0 of the sharded
// capture is byte-identical to the single-shard capture.
func TestShardedBackboneShardMatchesSingleShard(t *testing.T) {
	skipShort(t)
	fx := campaign(t, 1, shortDays)
	sameSegments(t, fx.dir(t, "capture"), fx.dir(t, "sharded"), "shard-0000")
}

// TestFilePipelineMatchesInMemory: the flat rows over the long campaign.
func TestFilePipelineMatchesInMemory(t *testing.T) {
	runRows(t, campaign(t, 1, longDays), selection{sources: []string{"flat"}, par: []int{0}, observed: plain})
}

// TestParallelismIsByteIdentical: the in-RAM rows, observed or not.
func TestParallelismIsByteIdentical(t *testing.T) {
	runRows(t, campaign(t, 1, shortDays), selection{sources: []string{"memory"}, lenient: strict})
}

// TestParallelismKnobThreaded: rows at parallel settings, each of which
// checks the analysis ran with the Parallelism it was handed.
func TestParallelismKnobThreaded(t *testing.T) {
	runRows(t, campaign(t, 1, shortDays), selection{sources: []string{"memory"}, lenient: strict, par: []int{2, 8}, observed: plain})
}

// TestRunEndToEnd: Run's default row, analyzed on the mined network,
// which round-trips the generated one.
func TestRunEndToEnd(t *testing.T) {
	fx := campaign(t, 1, shortDays)
	runRows(t, fx, selection{sources: []string{"memory"}, lenient: strict, par: []int{0}, observed: plain})
	st := fx.reference(t, "memory").study
	if len(st.Mined.Network.Links) != len(st.Campaign.Network.Links) {
		t.Errorf("mined %d links, campaign %d", len(st.Mined.Network.Links), len(st.Campaign.Network.Links))
	}
}

// rerun is the determinism column: Run on the fixture's config again
// must render the reference report, and it must compare something.
func rerun(t *testing.T, fx *fixture) {
	study, err := Run(context.Background(), fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if t4 := study.Analysis.Table4(); t4.ISISFailures == 0 || t4.SyslogFailures == 0 {
		t.Fatalf("empty comparison: %+v", t4)
	}
	var got bytes.Buffer
	if err := study.Report(&got); err != nil {
		t.Fatal(err)
	}
	assertSameLines(t, "the first run's report", got.Bytes(), fx.reference(t, "memory").report)
}

// TestGoldenSeed1Headline: the seed-1 campaign reruns to its report.
func TestGoldenSeed1Headline(t *testing.T) { rerun(t, campaign(t, 1, shortDays)) }

// TestRunDeterministic: so does the long campaign.
func TestRunDeterministic(t *testing.T) { rerun(t, campaign(t, 1, longDays)) }

// TestReportRendersAllSections: the reference report has every section.
func TestReportRendersAllSections(t *testing.T) {
	out := string(campaign(t, 1, shortDays).reference(t, "memory").report)
	for _, want := range []string{"Table 1", "Table 2", "Table 3", "Table 4", "Table 5", "Table 6", "Table 7",
		"Figure 1a", "Figure 1b", "Figure 1c", "knee at ten seconds", "hold-previous"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(out) < 2000 {
		t.Errorf("report suspiciously short: %d bytes", len(out))
	}
}

// TestCanceledBeforeStart: a canceled context stops every entry point.
func TestCanceledBeforeStart(t *testing.T) {
	fx := campaign(t, 1, shortDays)
	checkCancellation(t, fx, "")
	cancelAt(t, "Run", "", func(ctx context.Context, _ Option) error { _, err := Run(ctx, fx.cfg); return err })
	cancelAt(t, "Listen", "", func(ctx context.Context, _ Option) error { _, err := Listen(ctx, fx.camp.Network, fx.camp); return err })
}

// TestCancelMidAnalyze: cancellation as each stage starts.
func TestCancelMidAnalyze(t *testing.T) {
	checkCancellation(t, campaign(t, 1, shortDays), "listen", "extract-syslog", "reconstruct", "sanitize", "store")
}

// TestCancelMidSimulate: so it does both simulators as they start.
func TestCancelMidSimulate(t *testing.T) {
	cfg := smallConfig(6)
	cancelAt(t, "Simulate", "simulate", func(ctx context.Context, o Option) error { _, err := Simulate(ctx, cfg, o); return err })
	cancelAt(t, "SimulateToCapture", "simulate", func(ctx context.Context, o Option) error {
		_, err := SimulateToCapture(ctx, cfg, shardedFabric, t.TempDir(), o)
		return err
	})
}

// TestStoreFailureStopsEverySource: a store that cannot take the
// messages fails every source that writes one, in both modes — the
// served one too, whose supervisor counts a refused record and goes
// on: the store writer keeps the refusal and Finish returns it.
// Unparseable lines are still only accounted.
func TestStoreFailureStopsEverySource(t *testing.T) {
	ctx := context.Background()
	fx := campaign(t, 1, shortDays)
	for _, src := range []string{"memory", "flat", "capture", "sharded", "served"} {
		for _, lenient := range []bool{false, true} {
			// A directory sits where the first message segment goes.
			dir := t.TempDir()
			if err := os.Mkdir(filepath.Join(dir, store.MessageSegmentName(0)), 0o755); err != nil {
				t.Fatal(err)
			}
			if _, _, err := fx.analyze(t, ctx, src, lenient, t.TempDir(), WithStoreDir(dir)); err == nil {
				t.Errorf("%s lenient=%t: analysis succeeded over a store that takes no messages", src, lenient)
			}
		}
	}
	dir := t.TempDir()
	if err := writeFlat(dir, fx.camp); err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, SyslogLogName)
	lines, err := os.ReadFile(log)
	if err == nil {
		err = os.WriteFile(log, append([]byte("not a syslog line\n"), lines...), 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	_, reports, err := AnalyzeCaptureDir(ctx, dir, false, WithStoreDir(t.TempDir()))
	if err != nil {
		t.Fatalf("flat directory with one unparseable line: %v", err)
	}
	if len(reports) != 1 || reports[0].Report.Skipped != 1 {
		t.Errorf("unparseable line accounting = %+v, want one entry with one line skipped", reports)
	}
}

// TestStagesComposable: each stage also runs by itself.
func TestStagesComposable(t *testing.T) {
	camp := campaign(t, 1, shortDays).camp
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

func TestListenReportsRecordIndex(t *testing.T) {
	camp := *campaign(t, 1, shortDays).camp
	// Corrupt record 5 of a copy: a truncated PDU fails to decode.
	camp.LSPLog = slices.Clone(camp.LSPLog)
	camp.LSPLog[5].Data = []byte{0x83, 0x01}
	_, err := Listen(context.Background(), camp.Network, &camp)
	if err == nil {
		t.Fatal("Listen accepted a corrupt LSP record")
	}
	if !strings.Contains(err.Error(), "record 5") {
		t.Errorf("error %q does not name the failing record index", err)
	}
	if !strings.Contains(err.Error(), camp.LSPLog[5].Time.UTC().Format("2006")) {
		t.Errorf("error %q does not carry the record timestamp", err)
	}
}

func TestMarkdownReportEndToEnd(t *testing.T) {
	tables, err := campaign(t, 1, shortDays).reference(t, "memory").study.Tables(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.Markdown(&buf, tables); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# Reproduction report", "## Table 1", "## Table 7", "| Verdict |", "knee at ten seconds", " ✔ |"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

// pushed is a driver for study that camp's records were pushed into,
// as netfail-serve pushes them.
func pushed(t *testing.T, study *Study, camp *Campaign) *Driver {
	d, err := NewDriver(study, false)
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
	return d
}

// TestDriverWithoutWindowCounts pins netfail-serve's live mode: a
// driver with no campaign window produces no report, so it must count
// syslog messages rather than hold them for one.
func TestDriverWithoutWindowCounts(t *testing.T) {
	camp := campaign(t, 1, shortDays).camp
	mined, err := MineConfigs(camp)
	if err != nil {
		t.Fatal(err)
	}
	d := pushed(t, &Study{Mined: mined}, camp)
	if err := d.Syslog([]byte("not a syslog line")); err == nil {
		t.Error("garbage line parsed")
	}
	want := fmt.Sprintf("%d syslog messages (1 unparseable), %d LSPs,", len(camp.Syslog), len(camp.LSPLog))
	if got := d.Summary(); !strings.HasPrefix(got, want) {
		t.Errorf("Summary = %q, want it to start %q", got, want)
	}
	if d.ext != nil {
		t.Error("driver without a window has an extractor to retain transitions in")
	}
	if _, err := d.Finish(context.Background()); err == nil {
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
	d := pushed(t, &Study{Campaign: camp, Mined: mined}, camp)
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
