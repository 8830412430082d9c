// Command netfail-sim runs a simulated measurement campaign over a
// CENIC-scale network and writes the raw captures an analyst would
// have collected: the syslog message log, the IS-IS listener's LSP
// capture, the router configuration archive, the trouble-ticket
// corpus, and a campaign manifest.
//
// Usage:
//
//	netfail-sim -seed 1 -out ./campaign [-days 387] [-core 60 -cpe 175]
//	netfail-sim -seed 1 -out ./campaign -spill [-shards 9]
//
// The defaults reproduce the scale of the paper's 13-month study.
// netfail-analyze consumes the output directory.
// The config archive, out/configs, has a <host>_<stamp>.cfg file per
// pull that changed a router's text (and its first) and a line in
// out/configs/PULLS per other pull; a rerun into -out replaces it.
//
// With -spill the event streams go to a sharded on-disk capture
// (out/capture) instead of flat syslog.log/lsps.log files, keeping
// peak memory bounded by one shard's working set; -shards N adds N
// spine/leaf pod domains beside the backbone for data-center-scale
// campaigns, each captured to its own shard.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"netfail"
	"netfail/internal/config"
	"netfail/internal/netsim"
	"netfail/internal/syslog"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "simulation seed (campaigns are deterministic in it)")
		out      = flag.String("out", "campaign", "output directory")
		days     = flag.Int("days", 0, "campaign length in days (0 = the paper's Oct 2010 - Nov 2011 window)")
		core     = flag.Int("core", 0, "core router count (0 = CENIC default 60)")
		cpe      = flag.Int("cpe", 0, "CPE router count (0 = CENIC default 175)")
		refresh  = flag.Bool("full-refresh", false, "materialize every periodic LSP refresh (large output)")
		linkIDs  = flag.Bool("linkids", false, "advertise RFC 5307 link identifiers (footnote-1 extension)")
		inband   = flag.Bool("inband", false, "lose syslog from routers partitioned away from the collector")
		truth    = flag.Bool("truth", false, "also export ground-truth failures (truth.log)")
		dot      = flag.Bool("dot", false, "also export the topology as Graphviz (topology.dot)")
		progress = config.ProgressFlag(flag.CommandLine)
		spill    = flag.Bool("spill", false, "stream captures to a sharded on-disk capture (out/capture) instead of flat log files")
		shards   = flag.Int("shards", 0, "with -spill: add this many spine/leaf pod domains beside the backbone, one capture shard each")
		par      = config.ParallelismFlag(flag.CommandLine)
	)
	flag.Parse()

	cfg := netsim.Config{Seed: *seed}
	if *days > 0 {
		cfg.Start = netsim.StudyStart
		cfg.End = netsim.StudyStart.Add(time.Duration(*days) * 24 * time.Hour)
	}
	if *core > 0 || *cpe > 0 {
		spec := topo.DefaultSpec()
		spec.Seed = *seed
		if *core > 0 {
			spec.CoreRouters = *core
			spec.CoreChords = max(1, spec.CoreChords**core/60)
			spec.MultiLinkCorePairs = max(0, spec.MultiLinkCorePairs**core/60)
		}
		if *cpe > 0 {
			spec.CPERouters = *cpe
			spec.Customers = max(1, spec.Customers**cpe/175)
			spec.DualHomedCPE = max(1, spec.DualHomedCPE**cpe/175)
			spec.MultiLinkCPEPairs = max(0, spec.MultiLinkCPEPairs**cpe/175)
		}
		cfg.Spec = spec
	}
	if *refresh {
		cfg.RefreshMode = netsim.RefreshFull
	}
	cfg.EnableLinkIDs = *linkIDs
	cfg.InBandSyslog = *inband

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var opts []netfail.Option
	if *progress {
		opts = append(opts, netfail.WithProgress(func(ev netfail.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "progress: %s\n", ev)
		}))
	}

	if *shards > 0 && !*spill {
		fmt.Fprintln(os.Stderr, "netfail-sim: -shards requires -spill")
		os.Exit(2)
	}

	var err error
	if *spill {
		opts = append(opts, netfail.WithParallelism(*par))
		err = runSpill(ctx, cfg, *out, *shards, opts)
	} else {
		err = run(ctx, cfg, *out, *truth, *dot, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "netfail-sim:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

// runSpill streams the campaign to a sharded capture directory: the
// event logs live in out/capture as CRC-framed shard segments, the
// remaining artifacts (manifest, configs, tickets, customers) in out
// as usual. netfail-analyze detects the capture directory and streams
// it back shard by shard.
func runSpill(ctx context.Context, cfg netsim.Config, out string, shards int, opts []netfail.Option) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	var fabric netfail.FabricSpec
	if shards > 0 {
		fabric = netfail.DefaultFabricSpec(shards)
	}
	camp, err := netfail.SimulateToCapture(ctx, cfg, fabric, out, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("spilled campaign written to %s (capture in %s)\n", out, filepath.Join(out, netfail.CaptureDirName))
	printSummary(camp, 1+shards)
	return nil
}

// printSummary describes the campaign just written: a spilled one by
// its shard count, a flat one (shards 0) by its ticket count.
func printSummary(camp *netfail.Campaign, shards int) {
	fmt.Printf("  period:            %s - %s\n",
		camp.Config.Start.Format("2006-01-02"), camp.Config.End.Format("2006-01-02"))
	coreN, cpeN := camp.Network.CountRouters()
	coreL, cpeL := camp.Network.CountLinks()
	if shards > 0 {
		fmt.Printf("  shards:            %d\n", shards)
	}
	fmt.Printf("  routers:           %d core, %d cpe\n", coreN, cpeN)
	fmt.Printf("  links:             %d core, %d cpe\n", coreL, cpeL)
	fmt.Printf("  config files:      %d\n", camp.Archive.FileCount())
	fmt.Printf("  ground truth:      %d failures\n", camp.Counts.GroundTruthFailures)
	fmt.Printf("  syslog received:   %d of %d sent\n", camp.Counts.SyslogReceived, camp.Counts.SyslogSent)
	fmt.Printf("  IS-IS updates:     %d (%d content-bearing)\n", camp.Counts.LSPUpdates, camp.Counts.ContentLSPs)
	if shards == 0 {
		fmt.Printf("  tickets:           %d\n", netfail.GenerateTickets(camp).Len())
	}
}

// run writes a flat campaign directory: the metadata every campaign
// carries, plus the two event logs (and the -truth/-dot extras).
func run(ctx context.Context, cfg netsim.Config, out string, exportTruth, exportDOT bool, opts []netfail.Option) error {
	camp, err := netfail.Simulate(ctx, cfg, opts...)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	files := []netfail.CampaignFile{
		{Name: netfail.SyslogLogName, Write: func(w io.Writer) error { return syslog.WriteLog(w, camp.Syslog) }},
		{Name: netfail.LSPLogName, Write: func(w io.Writer) error { return netsim.WriteLSPLog(w, camp.LSPLog) }},
	}
	if exportTruth {
		files = append(files, netfail.CampaignFile{Name: "truth.log", Write: func(w io.Writer) error {
			var ts []trace.Transition
			for _, g := range camp.GroundTruth {
				ts = append(ts,
					trace.Transition{Time: g.Start, Link: g.Link, Dir: trace.Down, Kind: trace.KindISReach, Reporter: "truth"},
					trace.Transition{Time: g.End, Link: g.Link, Dir: trace.Up, Kind: trace.KindISReach, Reporter: "truth"})
			}
			trace.SortTransitions(ts)
			return trace.WriteTransitions(w, ts)
		}})
	}
	if exportDOT {
		files = append(files, netfail.CampaignFile{Name: "topology.dot", Write: func(w io.Writer) error {
			return topo.WriteDOT(w, camp.Network)
		}})
	}
	if err := netfail.WriteCampaignMeta(out, camp, files...); err != nil {
		return err
	}
	fmt.Printf("campaign written to %s\n", out)
	printSummary(camp, 0)
	return nil
}
