// Command netfail-serve is the crash-safe ingest daemon: it runs the
// capture sources under supervision, journals every record to a
// checkpointed WAL before applying it, and survives being killed at
// any instant — on restart it recovers the durable history and
// resumes exactly where it stopped, so a resumed campaign's final
// report is byte-identical to an uninterrupted run's.
//
// Replay mode (serve a captured campaign through the ingest path):
//
//	netfail-serve -data ./campaign -state ./state -report report.txt
//
// Live mode (receive syslog datagrams and LSPs over UDP):
//
//	netfail-serve -listen-syslog :5514 -listen-isis :9127 \
//	    -configs ./campaign/configs -state ./state
//
// Robustness knobs:
//
//	-queue N / -policy block|drop-oldest|drop-newest   backpressure
//	-snapshot-every N       checkpoint cadence (appends per WAL seal)
//	-drain-timeout D        bound on the SIGTERM drain
//	-fsync-each             power-loss durability (fsync per WAL write)
//	-strict                 refuse damaged checkpoint state (the
//	                        default salvages it)
//	-debug-addr ADDR        the versioned /api/v1 surface (metrics,
//	                        health, ready) plus /debug/pprof
//
// A failure store's query endpoints are served by
// `netfail-query -store DIR serve`, not by the daemon.
//
// The chaos harness drives -chaos-kill-after N: the daemon SIGKILLs
// itself at the first WAL write that makes N records durable, before
// it applies any record of that write, and `make chaos` asserts that a
// restarted run finishes with a byte-identical report.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"netfail"
	"netfail/internal/api"
	"netfail/internal/clock"
	"netfail/internal/config"
	"netfail/internal/netsim"
	"netfail/internal/obs"
	"netfail/internal/serve"
	"netfail/internal/syslog"
)

func main() {
	var (
		data          = flag.String("data", "", "campaign directory to replay through the ingest path (replay mode)")
		listenSyslog  = flag.String("listen-syslog", "", "UDP address to receive syslog datagrams on (live mode)")
		listenISIS    = flag.String("listen-isis", "", "UDP address to receive LSPs on (live mode)")
		configs       = flag.String("configs", "", "config archive directory for the link namespace (live mode)")
		state         = flag.String("state", "", "checkpoint directory (required); survives kills and restarts")
		reportPath    = flag.String("report", "", "write the final analysis report here (replay mode)")
		queueSize     = flag.Int("queue", 1024, "per-source ingest queue capacity")
		policyFlag    = flag.String("policy", "block", "full-queue policy: block, drop-oldest, or drop-newest")
		snapshotEvery = flag.Int("snapshot-every", 4096, "seal the WAL segment (fsync, start the next) every N durable appends (0: only at shutdown)")
		drainTimeout  = flag.Duration("drain-timeout", 10*time.Second, "bound on the shutdown drain; older backlog is shed")
		fsyncEach     = flag.Bool("fsync-each", false, "fsync every WAL write (one per batch): power-loss durability instead of kill durability")
		strict        = flag.Bool("strict", false, "refuse damaged checkpoint state with an offset-accurate error instead of salvaging it")
		debugAddr     = config.DebugAddrFlag(flag.CommandLine)
		chaosKill     = flag.Int("chaos-kill-after", 0, "SIGKILL this process once N records are durable (chaos harness)")
	)
	flag.Parse()

	if err := run(*data, *listenSyslog, *listenISIS, *configs, *state, *reportPath,
		*queueSize, *policyFlag, *snapshotEvery, *drainTimeout, *fsyncEach, *strict,
		*debugAddr, *chaosKill); err != nil {
		fmt.Fprintln(os.Stderr, "netfail-serve:", err)
		os.Exit(1)
	}
}

func run(data, listenSyslog, listenISIS, configDir, state, reportPath string,
	queueSize int, policyFlag string, snapshotEvery int, drainTimeout time.Duration,
	fsyncEach, strict bool, debugAddr string, chaosKill int) error {
	if state == "" {
		return fmt.Errorf("-state is required: the checkpoint directory is what makes the daemon crash-safe")
	}
	policy, err := serve.ParsePolicy(policyFlag)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	cfg := serve.Config{
		Dir:           state,
		QueueSize:     queueSize,
		Policy:        policy,
		SnapshotEvery: snapshotEvery,
		DrainTimeout:  drainTimeout,
		FsyncEach:     fsyncEach,
		Strict:        strict,
		Registry:      reg,
		Clock:         clock.System(),
	}
	if chaosKill > 0 {
		cfg.AppendHook = func(total int) {
			if total >= chaosKill {
				// The whole point: die the hard way, mid-ingest, with
				// no chance to flush or checkpoint. A write journals a
				// batch, so the total may step past N.
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case data != "":
		return runReplay(ctx, cfg, reg, data, reportPath, debugAddr)
	case listenSyslog != "" || listenISIS != "":
		if configDir == "" {
			return fmt.Errorf("live mode needs -configs for the link namespace")
		}
		return runLive(ctx, cfg, reg, listenSyslog, listenISIS, configDir, debugAddr)
	default:
		return fmt.Errorf("need either -data (replay mode) or -listen-syslog/-listen-isis with -configs (live mode)")
	}
}

// serveDebug starts the HTTP endpoint: the versioned /api/v1 surface
// (metrics, health, readiness) plus /debug/pprof.
func serveDebug(addr string, reg *obs.Registry, sup *serve.Supervisor) func() {
	if addr == "" {
		return func() {}
	}
	srv := api.NewServer(addr, api.Options{
		Registry: reg,
		Ready:    sup.ReadyHandler(),
		Healthz:  sup.HealthzHandler(),
	})
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "debug endpoint: %v\n", err)
		}
	}()
	fmt.Printf("debug endpoint on http://%s/api/v1/metrics\n", addr)
	return func() { srv.Close() }
}

// ---- replay mode ----------------------------------------------------

// campaignHandler pushes ingested records into the analysis driver —
// the same one the batch pipelines run — so the served report is the
// batch report: syslog lines are parsed against the driver's rolling
// RFC 3164 reference, LSPs flow through its passive listener.
// Per-source FIFO order is all it assumes — exactly what the
// supervisor guarantees, including across a kill/recover boundary.
// It takes no lock: the supervisor calls Apply from one goroutine at a
// time, and nothing else touches the driver until Run returns.
type campaignHandler struct {
	d   *netfail.Driver
	reg *obs.Registry
}

func (h *campaignHandler) Apply(rec serve.Record) error {
	switch rec.Source {
	case "syslog":
		err := h.d.Syslog(rec.Data)
		if err != nil {
			h.reg.Counter("drops.serve.syslog_parse").Add(1)
		}
		return err
	case "isis":
		err := h.d.LSP(rec.Time, rec.Data)
		if err != nil {
			h.reg.Counter("drops.serve.decode_errors").Add(1)
		}
		return err
	default:
		return fmt.Errorf("unknown source %q", rec.Source)
	}
}

// fileSource replays a fixed record list, resuming at start, which
// ingest sets to the recovered per-source count.
type fileSource struct {
	name  string
	recs  []serve.Record
	start int
}

func (s *fileSource) Name() string { return s.name }

func (s *fileSource) Run(ctx context.Context, emit func(serve.Record) error) error {
	for i := s.start; i < len(s.recs); i++ {
		if err := emit(s.recs[i]); err != nil {
			return err
		}
		s.start = i + 1
	}
	return nil
}

// ingest supervises the sources into a driver over study until they
// are exhausted or ctx ends. A replay source resumes after the records
// recovery already replayed through the handler, so nothing is re-sent
// and nothing is skipped.
func ingest(ctx context.Context, cfg serve.Config, reg *obs.Registry, study *netfail.Study, debugAddr string,
	sources ...serve.Source) (*netfail.Driver, error) {
	d, err := netfail.NewDriver(study, false)
	if err != nil {
		return nil, err
	}
	sup, rcv, err := serve.New(cfg, &campaignHandler{d: d, reg: reg}, sources...)
	if err != nil {
		return nil, err
	}
	if rcv.Records > 0 {
		fmt.Printf("recovered %d durable records (syslog %d, isis %d); %s\n",
			rcv.Records, rcv.PerSource["syslog"], rcv.PerSource["isis"], rcv.Report)
	}
	for _, src := range sources {
		if replay, ok := src.(*fileSource); ok {
			replay.start = rcv.PerSource[replay.name]
		}
	}
	stopDebug := serveDebug(debugAddr, reg, sup)
	defer stopDebug()
	return d, sup.Run(ctx)
}

func runReplay(ctx context.Context, cfg serve.Config, reg *obs.Registry, dir, reportPath, debugAddr string) error {
	study, _, err := netfail.ReadCampaignDir(ctx, dir, false)
	if err != nil {
		return err
	}
	syslogSrc, err := loadSyslogSource(filepath.Join(dir, netfail.SyslogLogName), study.Campaign.Config.Start)
	if err != nil {
		return err
	}
	isisSrc, err := loadISISSource(filepath.Join(dir, netfail.LSPLogName))
	if err != nil {
		return err
	}
	d, err := ingest(ctx, cfg, reg, study, debugAddr, syslogSrc, isisSrc)
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		fmt.Println("drained and checkpointed; restart to resume the replay")
		return nil
	}
	fmt.Println("served:", d.Summary())
	if reportPath == "" {
		return nil
	}
	return writeReport(ctx, d, reportPath)
}

// loadSyslogSource reads the raw syslog archive lines; parsing
// happens in the handler so recovery replay and live ingest share one
// code path. The file is read whole and its lines are compacted back
// to back at the front of that buffer as they are scanned — a line
// never lands past where it was read from — each handed out
// capacity-capped.
func loadSyslogSource(path string, start time.Time) (*fileSource, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	src := &fileSource{name: "syslog", recs: make([]serve.Record, 0, bytes.Count(data, []byte{'\n'})+1)}
	w := 0
	return src, syslog.ScanLog(bytes.NewReader(data), func(_ int, line []byte) error {
		n := copy(data[w:], line)
		src.recs = append(src.recs, serve.Record{Time: start, Data: data[w : w+n : w+n]})
		w += n
		return nil
	})
}

// loadISISSource reads the LSP capture; each record keeps its capture
// time, which the listener needs for transition timestamps.
func loadISISSource(path string) (*fileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	lsps, err := netsim.ReadLSPLog(f)
	if err != nil {
		return nil, err
	}
	src := &fileSource{name: "isis", recs: make([]serve.Record, len(lsps))}
	for i, c := range lsps {
		src.recs[i] = serve.Record{Time: c.Time, Data: c.Data}
	}
	return src, nil
}

// writeReport asks the driver for the study over everything served and
// writes the full report — the artifact the chaos gate compares
// byte-for-byte between an uninterrupted and a killed-and-resumed run.
func writeReport(ctx context.Context, d *netfail.Driver, path string) error {
	study, err := d.Finish(ctx)
	if err != nil {
		return err
	}
	var report bytes.Buffer
	if err := study.ReportContext(ctx, &report); err != nil {
		return err
	}
	if err := os.WriteFile(path, report.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// ---- live mode ------------------------------------------------------

// udpSource turns a UDP socket into a supervised record source: one
// datagram, one record. A read error returns from Run and lets the
// supervisor restart the source with backoff (re-binding the socket),
// replacing yet another hand-rolled retry loop.
type udpSource struct {
	name string
	addr string
	clk  clock.Clock
}

func (s *udpSource) Name() string { return s.name }

func (s *udpSource) Run(ctx context.Context, emit func(serve.Record) error) error {
	udpAddr, err := net.ResolveUDPAddr("udp", s.addr)
	if err != nil {
		return err
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	// Unblock the read when the supervisor stops: the close makes the
	// pending ReadFromUDP fail, and ctx.Err tells us it was shutdown.
	// ctx outlives this Run — the supervisor restarts a failed source
	// under the same one — so the watch ends with Run, not with ctx.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	buf := make([]byte, 64*1024)
	for {
		n, _, err := conn.ReadFromUDP(buf)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		rec := serve.Record{Time: s.clk.Now(), Data: append([]byte(nil), buf[:n]...)}
		if err := emit(rec); err != nil {
			return err
		}
	}
}

func runLive(ctx context.Context, cfg serve.Config, reg *obs.Registry, listenSyslog, listenISIS, configDir, debugAddr string) error {
	archive, err := config.LoadDir(configDir)
	if err != nil {
		return err
	}
	mined, err := config.Mine(archive)
	if err != nil {
		return err
	}
	var sources []serve.Source
	if listenSyslog != "" {
		sources = append(sources, &udpSource{name: "syslog", addr: listenSyslog, clk: cfg.Clock})
	}
	if listenISIS != "" {
		sources = append(sources, &udpSource{name: "isis", addr: listenISIS, clk: cfg.Clock})
	}
	fmt.Printf("serving: %d routers, %d links in namespace\n",
		len(mined.Network.Routers), len(mined.Network.Links))
	// A study with no campaign window: nothing will be compared, so
	// the driver counts syslog messages instead of retaining them.
	d, err := ingest(ctx, cfg, reg, &netfail.Study{Mined: mined}, debugAddr, sources...)
	if err != nil {
		return err
	}
	fmt.Println("stopped:", d.Summary())
	return nil
}
