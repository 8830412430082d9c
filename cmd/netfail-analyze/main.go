// Command netfail-analyze runs the paper's comparison pipeline over a
// captured campaign directory (as written by netfail-sim): it mines
// the configuration archive into the common link namespace, replays
// the LSP capture through the passive IS-IS listener, reconstructs
// failures from both data sources, and prints the requested tables
// and figures with the paper's published values alongside.
//
// Usage:
//
//	netfail-analyze -data ./campaign                 # everything
//	netfail-analyze -data ./campaign -table 4        # one table
//	netfail-analyze -data ./campaign -figure knee    # window sweep
//	netfail-analyze -data ./campaign -lenient        # salvage mode
//	netfail-analyze -data ./campaign -parallelism 1  # sequential reference
//	netfail-analyze -seed 1 -days 31 -trace -metrics # instrumented run
//
// The analysis pipeline shards per link across a bounded worker pool
// (one worker per CPU by default); -parallelism bounds it explicitly.
// Output is byte-identical for every worker count, so -parallelism 1
// is purely a debugging/baseline switch, not a different analysis.
//
// Observability flags (none of them changes the analysis output):
//
//	-trace       print the hierarchical stage/worker span tree to stderr
//	-trace-json  write the same spans as Chrome trace_event JSON
//	             (load in chrome://tracing or Perfetto)
//	-metrics     print the pipeline's named counters to stderr
//	-progress    stream stage start/finish and shard events to stderr
//
// Interrupting the process (SIGINT) cancels the pipeline at the next
// stage or shard boundary.
//
// In -lenient mode malformed capture records are skipped instead of
// aborting the analysis; a per-file salvage report goes to stderr, and
// the process exits with code 3 (instead of 0) when any record was
// dropped, so scripts can distinguish a clean analysis from a salvaged
// one.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"netfail"
	"netfail/internal/config"
	"netfail/internal/core"
	"netfail/internal/netsim"
	"netfail/internal/obs"
	"netfail/internal/report"
	"netfail/internal/trace"
)

func main() {
	var (
		data      = flag.String("data", "campaign", "campaign directory written by netfail-sim")
		seed      = flag.Int64("seed", 0, "skip the directory: simulate+analyze in memory with this seed")
		days      = flag.Int("days", 0, "with -seed: simulate this many days instead of the full 13-month study")
		table     = flag.Int("table", 0, "render only this table (1-7)")
		figure    = flag.String("figure", "", "render only this figure: 1a, 1b, 1c, knee, policies")
		svgDir    = flag.String("svg", "", "also write figure1[abc].svg and knee.svg into this directory")
		export    = flag.String("export", "", "also write the reconstructed transition streams into this directory")
		multi     = flag.Bool("multilink", false, "include multi-link adjacencies (pair with netfail-sim -linkids)")
		md        = flag.Bool("markdown", false, "emit a markdown reproduction report with automated verdicts")
		storeDir  = flag.String("store", "", "also write an indexed failure store into this directory (query with netfail-query)")
		lenient   = flag.Bool("lenient", false, "salvage damaged records instead of aborting on the first, accounting every skip")
		par       = config.ParallelismFlag(flag.CommandLine)
		traceTree = config.TraceFlag(flag.CommandLine)
		traceJSON = config.TraceJSONFlag(flag.CommandLine)
		metrics   = config.MetricsFlag(flag.CommandLine)
		progress  = config.ProgressFlag(flag.CommandLine)
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var tracer *obs.Tracer
	if *traceTree || *traceJSON != "" {
		tracer = obs.NewTracer()
	}
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	ctx = obs.WithTracer(ctx, tracer)
	ctx = obs.WithRegistry(ctx, reg)
	if *progress {
		ctx = obs.WithProgress(ctx, func(ev obs.Event) {
			fmt.Fprintf(os.Stderr, "progress: %s\n", ev)
		})
	}

	opts := []netfail.Option{netfail.WithMultiLink(*multi), netfail.WithParallelism(*par)}
	if *storeDir != "" {
		opts = append(opts, netfail.WithStoreDir(*storeDir))
	}
	var (
		study    *netfail.Study
		salvaged bool
		err      error
	)
	if *seed != 0 {
		study, err = runSeed(ctx, *seed, *days, opts)
	} else {
		study, salvaged, err = runDir(ctx, *data, *lenient, opts)
	}
	if err == nil {
		err = render(ctx, study, *table, *figure, *svgDir, *export, *md, *storeDir != "")
	}
	// The observability artifacts describe whatever ran, so they are
	// written even when the pipeline was canceled midway.
	if tracer != nil && *traceTree {
		if werr := tracer.WriteTree(os.Stderr); werr != nil {
			fmt.Fprintln(os.Stderr, "netfail-analyze: writing span tree:", werr)
		}
	}
	if tracer != nil && *traceJSON != "" {
		if werr := writeChrome(tracer, *traceJSON); werr != nil {
			fmt.Fprintln(os.Stderr, "netfail-analyze: writing trace JSON:", werr)
		}
	}
	if reg != nil {
		if werr := reg.WriteText(os.Stderr); werr != nil {
			fmt.Fprintln(os.Stderr, "netfail-analyze: writing metrics:", werr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "netfail-analyze:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
	if salvaged {
		os.Exit(3)
	}
}

func writeChrome(tracer *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSeed simulates and analyzes entirely in memory via the public
// pipeline (the context already carries any observability consumers).
func runSeed(ctx context.Context, seed int64, days int, opts []netfail.Option) (*netfail.Study, error) {
	cfg := netsim.Config{Seed: seed}
	if days > 0 {
		cfg.Start = netsim.StudyStart
		cfg.End = netsim.StudyStart.Add(time.Duration(days) * 24 * time.Hour)
	}
	return netfail.Run(ctx, cfg, opts...)
}

// runDir analyzes a campaign directory, flat or spilled, and prints
// its salvage accounting: every component in lenient mode (a skipped
// record there makes the run a salvaged one, exit 3), and in strict
// mode only the intact-but-unparseable syslog lines, which are
// tolerated in both modes — damage that can be localized has already
// aborted the run.
func runDir(ctx context.Context, dir string, lenient bool, opts []netfail.Option) (study *netfail.Study, salvaged bool, err error) {
	study, reports, err := netfail.AnalyzeCaptureDir(ctx, dir, lenient, opts...)
	if err != nil {
		return nil, false, err
	}
	for _, r := range reports {
		if !lenient {
			fmt.Fprintf(os.Stderr, "netfail-analyze: %s: %d records skipped\n", r.Name, r.Report.Skipped)
			continue
		}
		fmt.Fprintf(os.Stderr, "netfail-analyze: salvage %s: %s\n", r.Name, r.Report)
		obs.AddSalvage(obs.RegistryFrom(ctx), "salvage."+r.Name, r.Report)
		if !r.Report.Clean() {
			salvaged = true
		}
	}
	return study, salvaged, nil
}

// render prints the requested tables/figures.
func render(ctx context.Context, study *netfail.Study, table int, figure, svgDir, exportDir string, md, stored bool) error {
	w := os.Stdout
	a := study.Analysis
	configFiles, lspUpdates := study.Campaign.Archive.FileCount(), study.Campaign.Counts.LSPUpdates
	if exportDir != "" {
		if err := exportTransitions(a, exportDir); err != nil {
			return err
		}
	}
	// The figures and the markdown render the study's one Tables where
	// it is computed anyway: by the store, the markdown or the full
	// report. Beside one table or figure the figures compute their own.
	t := &core.Tables{}
	if md || svgDir != "" && (stored || table == 0 && figure == "") {
		var err error
		if t, err = study.Tables(ctx); err != nil {
			return err
		}
	} else if svgDir != "" {
		t.Figure1, t.Knee = a.Figure1(), a.WindowKnee(nil)
	}
	if svgDir != "" {
		paths, err := report.SaveFigures(svgDir, t.Figure1, t.Knee)
		if err != nil {
			return err
		}
		for _, p := range paths {
			fmt.Fprintf(os.Stderr, "wrote %s\n", p)
		}
	}
	if md {
		return report.Markdown(w, t)
	}

	if table == 0 && figure == "" {
		// Everything, through the sectioned (and span-traced) renderer.
		return study.ReportContext(ctx, w)
	}
	if table != 0 {
		return renderTable(w, a, configFiles, lspUpdates, table)
	}
	switch figure {
	case "1a", "1b", "1c", "1":
		return report.RenderFigure1(w, a.Figure1())
	case "knee":
		return report.RenderKnee(w, a.WindowKnee(nil))
	case "policies":
		return report.RenderPolicies(w, a.PolicyAblation())
	default:
		return fmt.Errorf("unknown figure %q", figure)
	}
}

func renderTable(w *os.File, a *core.Analysis, configFiles, lspUpdates, n int) error {
	switch n {
	case 1:
		return report.RenderTable1(w, a.Table1(configFiles, lspUpdates))
	case 2:
		return report.RenderTable2(w, a.Table2())
	case 3:
		return report.RenderTable3(w, a.Table3())
	case 4:
		return report.RenderTable4(w, a.Table4())
	case 5:
		return report.RenderTable5(w, a.Table5())
	case 6:
		return report.RenderTable6(w, a.Table6())
	case 7:
		return report.RenderTable7(w, a.Table7())
	default:
		return fmt.Errorf("no table %d", n)
	}
}

// exportTransitions writes the reconstructed streams for downstream
// tooling: syslog (merged per-link), IS reachability, IP
// reachability.
func exportTransitions(a *core.Analysis, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, ts []trace.Transition) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := trace.WriteTransitions(f, ts); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write("syslog-transitions.log", a.SyslogAdj); err != nil {
		return err
	}
	if err := write("is-reach-transitions.log", a.ISReach); err != nil {
		return err
	}
	return write("ip-reach-transitions.log", a.IPReach)
}
