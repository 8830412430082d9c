package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"netfail"
	"netfail/internal/config"
	"netfail/internal/core"
	"netfail/internal/listener"
	"netfail/internal/netsim"
	"netfail/internal/report"
	"netfail/internal/stats"
	"netfail/internal/store"
	"netfail/internal/tickets"
	"netfail/internal/topo"
)

// study-1x: the paper's own study, in RAM. One iteration simulates
// the CENIC-scale campaign, analyzes it, renders the full report,
// then analyzes the same campaign again into an indexed store.

func (e *runEnv) studyDays() int {
	if e.quick {
		return 3
	}
	// Two months, not the paper's thirteen: every timed operation is
	// bracketed by readings of the host's speed, which say little about
	// an operation much longer than the second or so a phase lasts, and
	// a run has to hold a median's worth of iterations.
	return 60
}

// mergeWindow is the pipeline's default span for collapsing the two
// routers' reports of one event; the staged drivers pass it where the
// un-staged path fills it in.
const mergeWindow = 60 * time.Second

// studyPass is the un-staged path: simulate, analyze, report.
func studyPass(ctx context.Context, e *runEnv, seed int64, parallelism int) (*netfail.Campaign, []byte, error) {
	camp, err := netfail.Simulate(ctx, simConfig(seed, e.studyDays()))
	if err != nil {
		return nil, nil, err
	}
	st, err := netfail.Analyze(ctx, camp, netfail.WithParallelism(parallelism))
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := st.Report(&buf); err != nil {
		return nil, nil, err
	}
	return camp, buf.Bytes(), nil
}

func campaignEvents(camp *netfail.Campaign) int {
	return len(camp.Syslog) + len(camp.LSPLog)
}

func runStudy(ctx context.Context, e *runEnv) (*runResult, error) {
	res := newRunResult("study-1x", e.seed, false)

	// Set-up is warm-up passes, which grow the heap to working size.
	// They use the first panel members; the timed loop the rest.
	warmUps := e.setupReps(5)
	setupS, err := e.setup(ctx, warmUps, nil, func(rep int) error {
		_, _, err := studyPass(ctx, e, e.member(rep), 0)
		return err
	})
	if err != nil {
		return nil, err
	}

	// costUS and rates are at reference speed; passS and storeS are the
	// wall seconds a user of this host waited.
	var passS, storeS, costUS, rates, sizes []float64
	err = e.loop(ctx, func(i int) (float64, error) {
		var camp *netfail.Campaign
		var rep []byte
		e.host.mark()
		pass, err := e.timed(func() (err error) {
			camp, rep, err = studyPass(ctx, e, e.member(warmUps+i), 0)
			return err
		})
		if err != nil {
			return 0, err
		}

		dir := filepath.Join(e.tmp, "store")
		var st *netfail.Study
		build, err := e.timed(func() (err error) {
			st, err = netfail.Analyze(ctx, camp, netfail.WithStoreDir(dir))
			return err
		})
		if err != nil {
			return 0, err
		}

		// Off the clock: the second analysis must leave a store and, which
		// is checked on every fourth iteration because rendering costs as
		// much again as half a pass, render the same report byte for byte.
		res.Attempted++
		if !store.IsStoreDir(dir) {
			res.fail("iteration %d: Analyze(WithStoreDir) left no store", i)
		}
		if i%4 == 0 {
			res.Attempted++
			var again bytes.Buffer
			if err := st.Report(&again); err != nil {
				return 0, err
			}
			if !bytes.Equal(rep, again.Bytes()) {
				res.fail("iteration %d: two analyses of one campaign rendered different reports", i)
			}
		}
		events := float64(campaignEvents(camp))
		passS, storeS, sizes = append(passS, pass.wall), append(storeS, build.wall), append(sizes, events)
		costUS = append(costUS, pass.atRef*1e6/events)
		rates = append(rates, events/(pass.atRef+build.atRef))
		return pass.wall + build.wall, os.RemoveAll(dir)
	})
	if err != nil {
		return nil, err
	}

	res.setSample("unit_p50_us", costUS)
	res.setSample("throughput_per_s", rates)
	res.setSample("setup_s", setupS)
	res.detail("study_s", "s", median(passS), passS)
	res.detail("analyze_store_s", "s", median(storeS), storeS)
	res.detail("events", "count", median(sizes), sizes)
	return res, nil
}

// scale multiplies a sample by k.
func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// sink keeps a table computation's result alive so the compiler
// cannot drop the call.
var sink any

// traceTables times each table, figure and sweep on its own, under
// one parent span. withTable7 is false on the fabric, where Table 7
// does not finish inside any run budget.
func traceTables(rec *recorder, res *runResult, a *core.Analysis, withTable7 bool) float64 {
	tables := []struct {
		metric string
		fn     func()
	}{
		{"core.table2_s", func() { sink = a.Table2() }},
		{"core.table3_s", func() { sink = a.Table3() }},
		{"core.table4_s", func() { sink = a.Table4() }},
		{"core.table5_s", func() { sink = a.Table5() }},
		{"core.table6_s", func() { sink = a.Table6() }},
		{"core.table7_s", func() { sink = a.Table7() }},
		{"core.figure1_s", func() { sink = a.Figure1() }},
		{"core.knee_s", func() { sink = a.WindowKnee(nil) }},
		{"core.policy_s", func() { sink = a.PolicyAblation() }},
	}
	var total float64
	rec.light("tables", func() {
		for _, t := range tables {
			if t.metric == "core.table7_s" && !withTable7 {
				continue
			}
			s := rec.do(strings.TrimSuffix(t.metric, "_s"), t.fn)
			res.set(t.metric, s.seconds())
			total += s.seconds()
		}
	})
	return total
}

// traceIsolated times Graph.IsolatedCustomers over seeded down-sets
// of one to three links and reports the mean in microseconds.
func traceIsolated(rec *recorder, res *runResult, net *topo.Network, customers []*topo.Customer, seed int64) {
	withCustomers := *net
	withCustomers.Customers = customers
	g := topo.NewGraph(&withCustomers)
	const sets = 2000
	rng := rand.New(rand.NewSource(seed))
	downs := make([]map[topo.LinkID]bool, sets)
	for i := range downs {
		downs[i] = map[topo.LinkID]bool{}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			downs[i][net.Links[rng.Intn(len(net.Links))].ID] = true
		}
	}
	s := rec.do("topo.isolated", func() {
		for _, d := range downs {
			sink = g.IsolatedCustomers(d)
		}
	})
	res.set("topo.isolated_us", s.seconds()*1e6/sets)
}

// replayListener drives every captured LSP through a fresh listener.
func replayListener(net *topo.Network, lsps []netsim.CapturedLSP) (*listener.Result, error) {
	l := listener.New(net)
	for i, c := range lsps {
		if err := l.Process(c.Time, c.Data); err != nil {
			return nil, fmt.Errorf("replaying LSP %d: %w", i, err)
		}
	}
	return l.Results(), nil
}

// traceStudy is the staged driver for study-1x: the same inputs, one
// layer after another at Parallelism 1, one span per call.
func traceStudy(ctx context.Context, e *runEnv) (*runResult, error) {
	res := newRunResult("study-1x", e.seed, true)
	rec := e.rec
	var err error

	// The un-staged pass the stages must add up to, and whose report
	// the staged one must reproduce byte for byte. A warm-up pass goes
	// before both and a collection before each, so that neither is
	// charged for growing the heap or for the other's garbage.
	if _, _, err = studyPass(ctx, e, e.member(0), 1); err != nil {
		return nil, err
	}
	runtime.GC()
	var unstaged []byte
	seq := rec.do("e2e.sequential", func() { _, unstaged, err = studyPass(ctx, e, e.member(0), 1) })
	if err != nil {
		return nil, err
	}
	runtime.GC()

	var camp *netfail.Campaign
	s := rec.do("netsim.run", func() { camp, err = netsim.Run(ctx, simConfig(e.member(0), e.studyDays())) })
	if err != nil {
		return nil, err
	}
	res.set("netsim.run_s", s.seconds())
	res.set("netsim.allocs", float64(s.Mallocs))
	res.set("netsim.events", float64(campaignEvents(camp)))

	var mined *config.Mined
	s = rec.do("config.mine", func() { mined, err = config.Mine(camp.Archive) })
	if err != nil {
		return nil, err
	}
	res.set("config.mine_s", s.seconds())

	var lres *listener.Result
	s = rec.do("listener.replay", func() { lres, err = replayListener(mined.Network, camp.LSPLog) })
	if err != nil {
		return nil, err
	}
	setListener(res, s.seconds(), s.Mallocs, lres.LSPCount)

	var tix *tickets.Index
	rec.do("tickets.generate", func() { tix = netfail.GenerateTickets(camp) })

	var traces core.SyslogTraces
	s = rec.do("core.extract", func() {
		core.NewExtractor(mined.Network).ExtractInto(ctx, camp.Syslog, mergeWindow, 1, &traces)
	})
	res.set("core.extract_s", s.seconds())
	res.set("core.extract_msgs", float64(traces.Messages))
	res.set("core.extract_allocs", float64(s.Mallocs))

	var a *core.Analysis
	s = rec.do("core.analyze", func() {
		a, err = core.Analyze(ctx, core.Input{
			Network:         mined.Network,
			Customers:       camp.Network.Customers,
			Traces:          &traces,
			ISTransitions:   lres.ISTransitions,
			IPTransitions:   lres.IPTransitions,
			Start:           camp.Config.Start,
			End:             camp.Config.End,
			ListenerOffline: camp.ListenerOffline,
			Tickets:         tix,
			Parallelism:     1,
		})
	})
	if err != nil {
		return nil, err
	}
	res.set("core.analyze_s", s.seconds())
	res.set("core.analyze_allocs", float64(s.Mallocs))

	var staged bytes.Buffer
	s = rec.do("report.full", func() {
		err = report.FullReport(ctx, &staged, a, camp.Archive.FileCount(), camp.Counts.LSPUpdates, 1)
	})
	if err != nil {
		return nil, err
	}
	res.set("report.full_s", s.seconds())
	stagedSum := rec.topLevelSum("netsim.run", "config.mine", "listener.replay",
		"tickets.generate", "core.extract", "core.analyze", "report.full")

	// The report computes every table again; timing them apart from
	// it says how much of report.full is table work and how much is
	// rendering.
	tablesS := traceTables(rec, res, a, true)
	res.set("report.render_self_s", res.Metrics["report.full_s"].Value-tablesS)

	durations := make([]float64, len(a.ISISFailures))
	for i, f := range a.ISISFailures {
		durations[i] = f.Duration().Seconds()
	}
	s = rec.do("stats.bootstrap", func() { _, _, err = stats.BootstrapMedianCI(durations, 400, 0.05, 1) })
	if err != nil {
		return nil, err
	}
	res.set("stats.bootstrap_s", s.seconds())

	traceIsolated(rec, res, mined.Network, camp.Network.Customers, e.seed)

	dir := filepath.Join(e.tmp, "store")
	s = rec.do("store.write", func() { err = writeStore(dir, camp, a) })
	if err != nil {
		return nil, err
	}
	res.set("store.write_s", s.seconds())
	n, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	res.set("store.bytes", float64(n))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	s = rec.do("store.build", func() {
		_, err = netfail.Analyze(ctx, camp, netfail.WithStoreDir(dir), netfail.WithParallelism(1))
	})
	if err != nil {
		return nil, err
	}
	res.set("store.build_s", s.seconds())

	res.Attempted++
	if !bytes.Equal(staged.Bytes(), unstaged) {
		res.fail("staged report differs from the un-staged pass's")
	}
	setCoverage(res, stagedSum, seq.seconds())
	return res, nil
}

func setListener(res *runResult, seconds float64, mallocs uint64, lsps int) {
	res.set("listener.replay_s", seconds)
	res.set("listener.lsps", float64(lsps))
	res.set("listener.us_per_lsp", seconds*1e6/float64(lsps))
	res.set("listener.allocs", float64(mallocs))
}

func setCoverage(res *runResult, stagedSum, e2eSeq float64) {
	res.set("driver.sum_s", stagedSum)
	res.set("driver.e2e_seq_s", e2eSeq)
	res.set("driver.coverage", stagedSum/e2eSeq)
}

// writeStore builds an indexed store from a finished analysis through
// the store package's own writer, the way the root package does.
func writeStore(dir string, camp *netfail.Campaign, a *core.Analysis) error {
	w, err := store.NewWriter(dir)
	if err != nil {
		return err
	}
	w.SetSeed(camp.Config.Seed)
	if err := w.StartMessageSegment(); err != nil {
		return err
	}
	var buf []byte
	for _, m := range camp.Syslog {
		buf = m.AppendRender(buf[:0])
		if err := w.AppendMessage(m.Timestamp.UnixMilli(), m.Hostname, buf); err != nil {
			return err
		}
	}
	if err := w.WriteAnalysis(a, camp.Archive.FileCount(), camp.Counts.LSPUpdates); err != nil {
		return err
	}
	return w.Finish()
}
