package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"netfail"
	"netfail/internal/capture"
	"netfail/internal/config"
	"netfail/internal/core"
	"netfail/internal/listener"
	"netfail/internal/netsim"
	"netfail/internal/syslog"
	"netfail/internal/tickets"
	"netfail/internal/topo"
)

// fabric-3x: a disk-resident, sharded campaign — the backbone plus
// two spine/leaf pod domains — analyzed from its capture directory.

func (e *runEnv) fabricShape() (pods, days int) {
	if e.quick {
		return 1, 3
	}
	// Twenty days of the 3x fabric: the thirteen-month capture takes
	// eleven seconds to analyze once, and a timed operation has to be
	// under a second for the readings of the host's speed around it to
	// say how fast the host ran during it.
	return 2, 20
}

// spillFabric simulates panel member k's fabric campaign into the
// member's directory and returns it with the capture's record count. A
// second spill of the same member writes over the first's files.
func spillFabric(ctx context.Context, e *runEnv, k int) (dir string, records float64, err error) {
	dir = filepath.Join(e.tmp, fmt.Sprintf("fabric-%d", k))
	if err = os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	pods, days := e.fabricShape()
	if _, err = netfail.SimulateToCapture(ctx, simConfig(e.member(k), days), netfail.DefaultFabricSpec(pods), dir); err != nil {
		return "", 0, err
	}
	cm, err := capture.ReadManifestDir(filepath.Join(dir, netfail.CaptureDirName))
	if err != nil {
		return "", 0, err
	}
	syslogRecs, lspRecs := cm.Records()
	return dir, float64(syslogRecs + lspRecs), nil
}

// fabricPrint is what two analyses of one capture must agree on.
type fabricPrint struct {
	SyslogFailures, ISISFailures                int
	SyslogAdj, SyslogPhysical, ISReach, IPReach int
	T2                                          core.Table2
	T3                                          core.Table3
	T4                                          core.Table4
	T5                                          core.Table5
	T6                                          core.Table6
}

// printOf takes an analysis's print. Table 5 bootstraps a confidence
// interval, which at this scale takes a third as long as the analysis
// itself: the traced run compares it, the timed loop's check between
// iterations leaves it out.
func printOf(a *core.Analysis, withTable5 bool) fabricPrint {
	p := fabricPrint{
		SyslogFailures: len(a.SyslogFailures), ISISFailures: len(a.ISISFailures),
		SyslogAdj: len(a.SyslogAdj), SyslogPhysical: len(a.SyslogPhysical),
		ISReach: len(a.ISReach), IPReach: len(a.IPReach),
		T2: a.Table2(), T3: a.Table3(), T4: a.Table4(), T6: a.Table6(),
	}
	if withTable5 {
		p.T5 = a.Table5()
	}
	return p
}

func runFabric(ctx context.Context, e *runEnv) (*runResult, error) {
	res := newRunResult("fabric-3x", e.seed, false)

	// One capture per set-up repetition; the timed loop takes them in
	// turn.
	type fabricCapture struct {
		dir     string
		records float64
		ref     *fabricPrint
	}
	var captures []*fabricCapture
	setupS, err := e.setup(ctx, e.setupReps(6), func(rep int) error {
		_, _, err := spillFabric(ctx, e, rep)
		return err
	}, func(rep int) error {
		dir, records, err := spillFabric(ctx, e, rep)
		captures = append(captures, &fabricCapture{dir: dir, records: records})
		return err
	})
	if err != nil {
		return nil, err
	}

	// costUS and rates are at reference speed; wallS is the wall seconds
	// a user of this host waited.
	var wallS, costUS, rates, sizes []float64
	err = e.loop(ctx, func(i int) (float64, error) {
		c := captures[i%len(captures)]
		var st *netfail.Study
		e.host.mark()
		l, err := e.timed(func() (err error) {
			st, _, err = netfail.AnalyzeCaptureDir(ctx, c.dir, false)
			return err
		})
		if err != nil {
			return 0, err
		}
		res.Attempted++
		p := printOf(st.Analysis, false)
		switch {
		case p.SyslogFailures == 0 || p.ISISFailures == 0:
			res.fail("iteration %d: the analysis found no failures (syslog %d, IS-IS %d)", i, p.SyslogFailures, p.ISISFailures)
		case c.ref == nil:
			c.ref = &p
		case !reflect.DeepEqual(p, *c.ref):
			res.fail("iteration %d: counts or Tables 2-4 and 6 differ from the first analysis of the same capture", i)
		}
		wallS, sizes = append(wallS, l.wall), append(sizes, c.records)
		costUS, rates = append(costUS, l.atRef*1e6/c.records), append(rates, c.records/l.atRef)
		return l.wall, nil
	})
	if err != nil {
		return nil, err
	}

	res.setSample("unit_p50_us", costUS)
	res.setSample("throughput_per_s", rates)
	res.setSample("setup_s", setupS)
	res.detail("fabric_analyze_s", "s", median(wallS), wallS)
	res.detail("capture_records", "count", median(sizes), sizes)
	return res, nil
}

// rawShard holds one segment's records, copied out of the reader's
// reused buffer into one arena.
type rawShard struct {
	arena []byte
	ends  []int
	tsMs  []int64
}

func (r *rawShard) record(i int) []byte {
	start := 0
	if i > 0 {
		start = r.ends[i-1]
	}
	return r.arena[start:r.ends[i]]
}

// readSegment reads a segment to EOF and does nothing else with it.
func readSegment(path string, into *rawShard) error {
	into.arena, into.ends, into.tsMs = into.arena[:0], into.ends[:0], into.tsMs[:0]
	sr, err := capture.OpenSegment(path)
	if err != nil {
		return err
	}
	defer sr.Close()
	for {
		ts, rec, err := sr.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		into.arena = append(into.arena, rec...)
		into.ends = append(into.ends, len(into.arena))
		into.tsMs = append(into.tsMs, ts)
	}
}

// loadSideFiles reads what a campaign directory holds beside the
// configs and the capture.
func loadSideFiles(dir string) (*netsim.Manifest, []tickets.Ticket, []*topo.Customer, error) {
	read := func(name string, fn func(*os.File) error) error {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := fn(f); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	var man *netsim.Manifest
	var corpus []tickets.Ticket
	var customers []*topo.Customer
	err := read("manifest.json", func(f *os.File) (err error) { man, err = netsim.ReadManifest(f); return })
	if err == nil {
		err = read("tickets.json", func(f *os.File) (err error) { corpus, err = tickets.ReadJSON(f); return })
	}
	if err == nil {
		err = read("customers.json", func(f *os.File) (err error) { customers, err = topo.ReadCustomersJSON(f); return })
	}
	return man, corpus, customers, err
}

// traceFabric is the staged driver for fabric-3x.
func traceFabric(ctx context.Context, e *runEnv) (*runResult, error) {
	res := newRunResult("fabric-3x", e.seed, true)
	rec := e.rec
	var err error

	// As in the end-to-end run, the spill that is timed writes over the
	// files of one that is not.
	if _, _, err = spillFabric(ctx, e, 0); err != nil {
		return nil, err
	}
	var dir string
	s := rec.do("netsim.spill", func() { dir, _, err = spillFabric(ctx, e, 0) })
	if err != nil {
		return nil, err
	}
	res.set("netsim.spill_s", s.seconds())
	capDir := filepath.Join(dir, netfail.CaptureDirName)

	// The un-staged pass the stages must add up to, and agree with. A
	// collection goes before it and before the stages, so that neither
	// is charged for the other's garbage.
	runtime.GC()
	var unstaged *netfail.Study
	seq := rec.do("e2e.sequential", func() {
		unstaged, _, err = netfail.AnalyzeCaptureDir(ctx, dir, false, netfail.WithParallelism(1))
	})
	if err != nil {
		return nil, err
	}
	want := printOf(unstaged.Analysis, true)
	unstaged = nil
	runtime.GC()

	var archive *config.Archive
	var mined *config.Mined
	s = rec.do("config.load", func() {
		if archive, err = config.LoadDir(filepath.Join(dir, "configs")); err == nil {
			mined, err = config.Mine(archive)
		}
	})
	if err != nil {
		return nil, err
	}
	res.set("config.load_s", s.seconds())

	var man *netsim.Manifest
	var corpus []tickets.Ticket
	var customers []*topo.Customer
	var cm *capture.Manifest
	rec.do("load.meta", func() {
		if man, corpus, customers, err = loadSideFiles(dir); err == nil {
			cm, err = capture.ReadManifestDir(capDir)
		}
	})
	if err != nil {
		return nil, err
	}

	var raw rawShard
	var captureBytes, captureRecords int64
	merged := &core.SyslogTraces{}
	ext := core.NewExtractor(mined.Network)
	tok := syslog.NewTokenizer()
	for _, sh := range cm.Shards {
		rec.do("capture.read_syslog", func() { err = readSegment(filepath.Join(capDir, sh.Name, capture.SyslogSegment), &raw) })
		if err != nil {
			return nil, err
		}
		captureBytes += int64(len(raw.arena))
		captureRecords += int64(len(raw.ends))

		msgs := make([]*syslog.Message, 0, len(raw.ends))
		rec.do("syslog.parse", func() {
			for i := range raw.ends {
				m := &syslog.Message{}
				// An unparseable line is skipped, as the analysis skips it.
				if perr := tok.ParseBytes(raw.record(i), man.Start, m); perr == nil {
					msgs = append(msgs, m)
				}
			}
		})
		rec.do("core.extract", func() {
			var shardTraces core.SyslogTraces
			ext.ExtractInto(ctx, msgs, mergeWindow, 1, &shardTraces)
			merged.Merge(&shardTraces)
		})
	}

	l := listener.New(mined.Network)
	var lres *listener.Result
	for _, sh := range cm.Shards {
		rec.do("capture.read_lsp", func() { err = readSegment(filepath.Join(capDir, sh.Name, capture.LSPSegment), &raw) })
		if err != nil {
			return nil, err
		}
		captureBytes += int64(len(raw.arena))
		captureRecords += int64(len(raw.ends))
		rec.do("listener.replay", func() {
			for i, ts := range raw.tsMs {
				if err = l.Process(time.UnixMilli(ts).UTC(), raw.record(i)); err != nil {
					err = fmt.Errorf("shard %s: LSP %d: %w", sh.Name, i, err)
					return
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	rec.do("listener.replay", func() { lres = l.Results() })

	readSyslogS, _, _ := rec.total("capture.read_syslog")
	readLSPS, _, _ := rec.total("capture.read_lsp")
	res.set("capture.read_syslog_s", readSyslogS)
	res.set("capture.read_lsp_s", readLSPS)
	res.set("capture.read_mb_per_s", float64(captureBytes)/1e6/(readSyslogS+readLSPS))
	res.set("capture.records", float64(captureRecords))
	res.set("capture.bytes", float64(captureBytes))
	parseS, parseAllocs, _ := rec.total("syslog.parse")
	res.set("syslog.parse_s", parseS)
	res.set("syslog.parse_allocs", float64(parseAllocs))
	extractS, extractAllocs, _ := rec.total("core.extract")
	res.set("core.extract_s", extractS)
	res.set("core.extract_msgs", float64(merged.Messages))
	res.set("core.extract_allocs", float64(extractAllocs))
	replayS, replayAllocs, _ := rec.total("listener.replay")
	setListener(res, replayS, replayAllocs, lres.LSPCount)

	var tix *tickets.Index
	rec.do("tickets.index", func() { tix = tickets.NewIndex(corpus) })

	var a *core.Analysis
	s = rec.do("core.analyze", func() {
		a, err = core.Analyze(ctx, core.Input{
			Network:         mined.Network,
			Customers:       customers,
			Traces:          merged,
			ISTransitions:   lres.ISTransitions,
			IPTransitions:   lres.IPTransitions,
			Start:           man.Start,
			End:             man.End,
			ListenerOffline: man.Offline(),
			Tickets:         tix,
			Parallelism:     1,
		})
	})
	if err != nil {
		return nil, err
	}
	res.set("core.analyze_s", s.seconds())
	res.set("core.analyze_allocs", float64(s.Mallocs))
	stagedSum := rec.topLevelSum("config.load", "load.meta", "capture.read_syslog", "syslog.parse",
		"core.extract", "capture.read_lsp", "listener.replay", "tickets.index", "core.analyze")

	traceTables(rec, res, a, false)

	// Table 7 is quadratic in failures at this scale; its sweep over
	// the first 4096 IS-IS failures is the bounded stand-in.
	withCustomers := *mined.Network
	withCustomers.Customers = customers
	g := topo.NewGraph(&withCustomers)
	first := a.ISISFailures[:min(len(a.ISISFailures), 4096)]
	s = rec.do("core.isolation_4k", func() { sink = core.IsolationEvents(g, customers, first, man.End) })
	res.set("core.isolation_4k_s", s.seconds())

	traceIsolated(rec, res, mined.Network, customers, e.seed)

	res.Attempted++
	if !reflect.DeepEqual(printOf(a, true), want) {
		res.fail("staged counts or Tables 2-6 differ from AnalyzeCaptureDir's")
	}
	setCoverage(res, stagedSum, seq.seconds())
	return res, nil
}
