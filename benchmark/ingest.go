package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"netfail"
	"netfail/internal/checkpoint"
	"netfail/internal/config"
	"netfail/internal/core"
	"netfail/internal/listener"
	"netfail/internal/netsim"
	"netfail/internal/report"
	"netfail/internal/serve"
	"netfail/internal/syslog"
	"netfail/internal/tickets"
	"netfail/internal/topo"
)

// ingest-replay: the real netfail-serve daemon, as a subprocess with
// its default flags, replaying a flat campaign directory through
// supervised sources, bounded queues, the WAL and its snapshots, the
// handler, and the final report.

func (e *runEnv) ingestDays() int {
	if e.quick {
		return 3
	}
	// Two months: a daemon run has to be well under a second for the
	// readings of the host's speed around it to say how fast the host
	// ran during it. (The daemon snapshots its whole history every 4096
	// appends, so a run's cost grows with the square of the campaign.)
	return 60
}

// snapshotEvery is netfail-serve's default -snapshot-every.
const snapshotEvery = 4096

// buildDaemon compiles cmd/netfail-serve into the run's scratch. It
// is never timed: set-up starts after it.
func buildDaemon(ctx context.Context, e *runEnv) (string, error) {
	bin := filepath.Join(e.tmp, "netfail-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "netfail/cmd/netfail-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build netfail/cmd/netfail-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// writeFlatCampaign writes what netfail-sim writes: the two event
// logs, the manifest, tickets, customers and the config archive.
func writeFlatCampaign(dir string, camp *netfail.Campaign) error {
	write := func(name string, fn func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		if err := fn(w); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", name, err)
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	corpus := tickets.Generate(camp.Config.Seed+1, camp.GroundTruthFailures(), tickets.DefaultParams())
	steps := []struct {
		name string
		fn   func(io.Writer) error
	}{
		{"syslog.log", func(w io.Writer) error { return syslog.WriteLog(w, camp.Syslog) }},
		{"lsps.log", func(w io.Writer) error { return netsim.WriteLSPLog(w, camp.LSPLog) }},
		{"manifest.json", camp.WriteManifest},
		{"tickets.json", func(w io.Writer) error { return tickets.WriteJSON(w, corpus) }},
		{"customers.json", func(w io.Writer) error { return topo.WriteCustomersJSON(w, camp.Network.Customers) }},
	}
	for _, s := range steps {
		if err := write(s.name, s.fn); err != nil {
			return err
		}
	}
	return camp.Archive.SaveDir(filepath.Join(dir, "configs"))
}

// ingestRig is a flat campaign on disk plus the batch pipeline's
// report on the same campaign, which the daemon must reproduce.
type ingestRig struct {
	dir     string
	records int
	ref     []byte
}

// writeIngestCampaign simulates panel member k's campaign and writes it
// into the member's directory, over what an earlier call left there.
func writeIngestCampaign(ctx context.Context, e *runEnv, k int) (string, *netfail.Campaign, error) {
	dir := filepath.Join(e.tmp, fmt.Sprintf("campaign-%d", k))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	camp, err := netfail.Simulate(ctx, simConfig(e.member(k), e.ingestDays()))
	if err != nil {
		return "", nil, err
	}
	return dir, camp, writeFlatCampaign(dir, camp)
}

// buildIngestRig writes panel member k's campaign and takes the batch
// pipeline's report on it.
func buildIngestRig(ctx context.Context, e *runEnv, k int) (*ingestRig, error) {
	dir, camp, err := writeIngestCampaign(ctx, e, k)
	if err != nil {
		return nil, err
	}
	st, err := netfail.Analyze(ctx, camp)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := st.Report(&buf); err != nil {
		return nil, err
	}
	return &ingestRig{dir: dir, records: campaignEvents(camp), ref: buf.Bytes()}, nil
}

// daemonRun is what one run of the daemon came to: the wall seconds it
// took, the processor seconds it used, its peak RSS and its report.
type daemonRun struct {
	wall, cpu, rssMB float64
	report           []byte
}

// runDaemon runs the daemon once over the campaign with a fresh state
// directory, held like the benchmark itself to one running thread.
func (rig *ingestRig) runDaemon(ctx context.Context, e *runEnv, bin string) (daemonRun, error) {
	state, err := e.dir("state")
	if err != nil {
		return daemonRun{}, err
	}
	out := filepath.Join(e.tmp, "daemon-report.txt")
	cmd := exec.CommandContext(ctx, bin, "-data", rig.dir, "-state", state, "-report", out)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", benchProcs))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	err = cmd.Run()
	run := daemonRun{wall: time.Since(t0).Seconds()}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return run, cerr
		}
		return run, fmt.Errorf("netfail-serve: %w: %.300s", err, stderr.Bytes())
	}
	ps := cmd.ProcessState
	run.cpu, run.rssMB = (ps.UserTime() + ps.SystemTime()).Seconds(), childPeakRSSMB(ps)
	run.report, err = os.ReadFile(out)
	return run, err
}

func runIngest(ctx context.Context, e *runEnv) (*runResult, error) {
	res := newRunResult("ingest-replay", e.seed, false)
	bin, err := buildDaemon(ctx, e)
	if err != nil {
		return nil, err
	}
	// One campaign per set-up repetition; the daemon runs take them in
	// turn.
	var rigs []*ingestRig
	setupS, err := e.setup(ctx, e.setupReps(4), func(rep int) error {
		_, _, err := writeIngestCampaign(ctx, e, rep)
		return err
	}, func(rep int) error {
		rig, err := buildIngestRig(ctx, e, rep)
		rigs = append(rigs, rig)
		return err
	})
	if err != nil {
		return nil, err
	}

	// costUS and rates are at reference speed; wallS is the wall seconds
	// a user of this host waited.
	var wallS, costUS, rates, sizes []float64
	var rss float64
	err = e.loop(ctx, func(i int) (float64, error) {
		rig := rigs[i%len(rigs)]
		e.host.mark()
		run, err := rig.runDaemon(ctx, e, bin)
		atRef := run.cpu * e.host.lap()
		res.Attempted++
		if err != nil {
			if ctx.Err() != nil {
				return 0, err
			}
			res.fail("run %d: %v", i, err)
			return run.wall, nil
		}
		if !bytes.Equal(run.report, rig.ref) {
			res.fail("run %d: the daemon's report differs from the batch pipeline's", i)
		}
		records := float64(rig.records)
		wallS, sizes = append(wallS, run.wall), append(sizes, records)
		costUS, rates = append(costUS, atRef*1e6/records), append(rates, records/atRef)
		rss = max(rss, run.rssMB)
		return run.wall, nil
	})
	if err != nil {
		return nil, err
	}
	if len(wallS) == 0 {
		return nil, fmt.Errorf("no daemon run succeeded: %v", res.Errors)
	}

	res.setSample("unit_p50_us", costUS)
	res.setSample("throughput_per_s", rates)
	res.setSample("setup_s", setupS)
	// The daemon is the program under test here, so its high-water
	// mark is the one reported, not the benchmark process's.
	res.set("peak_rss_mb", rss)
	res.detail("ingest_records_per_s", "rec/s", sum(sizes)/sum(wallS), nil)
	res.detail("daemon_s", "s", median(wallS), wallS)
	res.detail("records", "count", median(sizes), sizes)
	return res, nil
}

// readLines loads a log's non-empty lines, as the daemon's syslog
// source does.
func readLines(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			lines = append(lines, append([]byte(nil), sc.Bytes()...))
		}
	}
	return lines, sc.Err()
}

// sliceSource replays a fixed record list once.
type sliceSource struct {
	name string
	recs []serve.Record
}

func (s *sliceSource) Name() string { return s.name }

func (s *sliceSource) Run(_ context.Context, emit func(serve.Record) error) error {
	for _, r := range s.recs {
		if err := emit(r); err != nil {
			return err
		}
	}
	return nil
}

// walPayload frames a record the way the supervisor journals it:
// source name, capture time, data.
func walPayload(r serve.Record) []byte {
	buf := make([]byte, 1+len(r.Source)+8+len(r.Data))
	buf[0] = byte(len(r.Source))
	copy(buf[1:], r.Source)
	binary.LittleEndian.PutUint64(buf[1+len(r.Source):], uint64(r.Time.UnixNano()))
	copy(buf[1+len(r.Source)+8:], r.Data)
	return buf
}

// traceCheckpoint drives the checkpoint layer alone: append every
// record, snapshot the history at the daemon's cadence, close, then
// recover the finished directory.
func traceCheckpoint(e *runEnv, res *runResult, recs []serve.Record) error {
	rec := e.rec
	dir, err := e.dir("checkpoint")
	if err != nil {
		return err
	}
	payloads := make([][]byte, len(recs))
	for i, r := range recs {
		payloads[i] = walPayload(r)
	}
	var cerr error
	rec.light("checkpoint", func() {
		st, _, err := checkpoint.Open(dir)
		if err != nil {
			cerr = err
			return
		}
		history := make([]checkpoint.Record, 0, len(payloads))
		for lo := 0; lo < len(payloads) && cerr == nil; lo += snapshotEvery {
			batch := payloads[lo:min(lo+snapshotEvery, len(payloads))]
			rec.do("checkpoint.append", func() {
				for _, p := range batch {
					seq, err := st.Append(p)
					if err != nil {
						cerr = err
						return
					}
					history = append(history, checkpoint.Record{Seq: seq, Data: p})
				}
			})
			// A full batch ends on the cadence; the last, short one is
			// followed by the shutdown snapshot.
			if cerr == nil {
				rec.do("checkpoint.snapshot", func() { cerr = st.Snapshot(history) })
			}
		}
		if err := st.Close(); cerr == nil {
			cerr = err
		}
	})
	if cerr != nil {
		return cerr
	}
	appendS, _, _ := rec.total("checkpoint.append")
	snapshotS, _, _ := rec.total("checkpoint.snapshot")
	res.set("checkpoint.append_s", appendS)
	res.set("checkpoint.appends_per_s", float64(len(payloads))/appendS)
	res.set("checkpoint.snapshot_s", snapshotS)
	n, err := dirBytes(dir)
	if err != nil {
		return err
	}
	res.set("checkpoint.bytes", float64(n))

	var recovered int
	s := rec.do("checkpoint.recover", func() {
		st, rcv, err := checkpoint.Open(dir)
		if err != nil {
			cerr = err
			return
		}
		recovered = len(rcv.Records)
		cerr = st.Close()
	})
	if cerr != nil {
		return cerr
	}
	res.set("checkpoint.recover_s", s.seconds())
	res.Attempted++
	if recovered != len(payloads) {
		res.fail("checkpoint recovered %d of %d records", recovered, len(payloads))
	}
	return nil
}

// traceIngest is the staged driver for ingest-replay.
func traceIngest(ctx context.Context, e *runEnv) (*runResult, error) {
	res := newRunResult("ingest-replay", e.seed, true)
	rec := e.rec
	bin, err := buildDaemon(ctx, e)
	if err != nil {
		return nil, err
	}
	if _, _, err = writeIngestCampaign(ctx, e, 0); err != nil {
		return nil, err
	}
	var rig *ingestRig
	rec.do("setup", func() { rig, err = buildIngestRig(ctx, e, 0) })
	if err != nil {
		return nil, err
	}

	man, corpus, customers, err := loadSideFiles(rig.dir)
	if err != nil {
		return nil, err
	}

	// The two flat-file parsers, on their own.
	s := rec.do("syslog.readlog", func() {
		var f *os.File
		if f, err = os.Open(filepath.Join(rig.dir, "syslog.log")); err == nil {
			_, _, err = syslog.ReadLog(f, man.Start)
			f.Close()
		}
	})
	if err != nil {
		return nil, err
	}
	res.set("syslog.readlog_s", s.seconds())

	var lsps []netsim.CapturedLSP
	s = rec.do("netsim.readlsp", func() {
		var f *os.File
		if f, err = os.Open(filepath.Join(rig.dir, "lsps.log")); err == nil {
			lsps, err = netsim.ReadLSPLog(f)
			f.Close()
		}
	})
	if err != nil {
		return nil, err
	}
	res.set("netsim.readlsp_s", s.seconds())

	// From here the stages follow the daemon's own sequence.
	var archive *config.Archive
	var mined *config.Mined
	s = rec.do("config.load", func() {
		if archive, err = config.LoadDir(filepath.Join(rig.dir, "configs")); err == nil {
			mined, err = config.Mine(archive)
		}
	})
	if err != nil {
		return nil, err
	}
	res.set("config.load_s", s.seconds())

	var lines [][]byte
	rec.do("load.lines", func() { lines, err = readLines(filepath.Join(rig.dir, "syslog.log")) })
	if err != nil {
		return nil, err
	}
	syslogSrc := &sliceSource{name: "syslog"}
	for _, line := range lines {
		syslogSrc.recs = append(syslogSrc.recs, serve.Record{Source: "syslog", Time: man.Start, Data: line})
	}
	isisSrc := &sliceSource{name: "isis"}
	for _, c := range lsps {
		isisSrc.recs = append(isisSrc.recs, serve.Record{Source: "isis", Time: c.Time, Data: c.Data})
	}
	all := append(append([]serve.Record(nil), syslogSrc.recs...), isisSrc.recs...)

	// Queues and WAL, no analysis.
	state, err := e.dir("pipeline-state")
	if err != nil {
		return nil, err
	}
	applied := 0
	s = rec.do("serve.pipeline", func() {
		var sup *serve.Supervisor
		sup, _, err = serve.New(serve.Config{Dir: state, SnapshotEvery: snapshotEvery},
			serve.HandlerFunc(func(serve.Record) error { applied++; return nil }), syslogSrc, isisSrc)
		if err == nil {
			err = sup.Run(ctx)
		}
	})
	if err != nil {
		return nil, err
	}
	res.set("serve.pipeline_s", s.seconds())
	res.set("serve.records_per_s", float64(len(all))/s.seconds())
	res.Attempted++
	if applied != len(all) {
		res.fail("the supervisor applied %d of %d records", applied, len(all))
	}

	// What the daemon's handler does with each record.
	l := listener.New(mined.Network)
	tok := syslog.NewTokenizer()
	var msgs []*syslog.Message
	rec.do("serve.apply", func() {
		rolling := man.Start
		for _, line := range lines {
			m := new(syslog.Message)
			// An unparseable line is counted and skipped by the daemon too.
			if perr := tok.ParseBytes(line, rolling, m); perr != nil {
				continue
			}
			if m.Timestamp.After(rolling) {
				rolling = m.Timestamp
			}
			msgs = append(msgs, m)
		}
		for i, c := range lsps {
			if err = l.Process(c.Time, c.Data); err != nil {
				err = fmt.Errorf("LSP %d: %w", i, err)
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	lres := l.Results()

	var a *core.Analysis
	s = rec.do("core.analyze", func() {
		a, err = core.Analyze(ctx, core.Input{
			Network:         mined.Network,
			Customers:       customers,
			Syslog:          msgs,
			ISTransitions:   lres.ISTransitions,
			IPTransitions:   lres.IPTransitions,
			Start:           man.Start,
			End:             man.End,
			ListenerOffline: man.Offline(),
			Tickets:         tickets.NewIndex(corpus),
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
		err = report.FullReport(ctx, &staged, a, archive.FileCount(), man.Counts.LSPUpdates, 1)
	})
	if err != nil {
		return nil, err
	}
	res.set("report.full_s", s.seconds())
	stagedSum := rec.topLevelSum("netsim.readlsp", "config.load", "load.lines", "serve.pipeline",
		"serve.apply", "core.analyze", "report.full")

	if err := traceCheckpoint(e, res, all); err != nil {
		return nil, err
	}

	// The daemon has no parallelism flag and gains none here; one
	// processor is the nearest thing to the sequential pass.
	var run daemonRun
	rec.light("e2e.sequential", func() { run, err = rig.runDaemon(ctx, e, bin) })
	if err != nil {
		return nil, err
	}
	res.Attempted++
	if !bytes.Equal(run.report, staged.Bytes()) || !bytes.Equal(run.report, rig.ref) {
		res.fail("the daemon's, the staged and the batch report are not all the same bytes")
	}
	setCoverage(res, stagedSum, run.wall)
	return res, nil
}
