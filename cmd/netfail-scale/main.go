// Command netfail-scale is the scale gate: it simulates and analyzes
// sharded spill-to-disk campaigns at increasing CENIC multipliers,
// prints one table row per multiplier (events, capture size, per-phase
// wall-clock, events/sec, peak RSS) on stdout, and exits non-zero if
// peak RSS passes -max-rss-mb — the spill format's whole point is that
// campaign size stops being a memory ceiling. It writes no file.
//
// Usage:
//
//	netfail-scale [-mult 1,10] [-days 0] [-seed 1] [-max-rss-mb 2048]
//
// `make scale` runs it with the defaults (the full 13-month study at
// 1x and 10x); scripts/verify.sh runs a seven-day 1x/2x smoke.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"netfail"
	"netfail/internal/capture"
	"netfail/internal/clock"
	"netfail/internal/netsim"
)

func main() {
	mult := flag.String("mult", "1,10", "comma-separated CENIC multipliers, ascending")
	days := flag.Int("days", 0, "campaign length in days (0 = the paper's full 13-month window)")
	seed := flag.Int64("seed", 1, "campaign seed")
	maxRSS := flag.Int64("max-rss-mb", 2048, "fail if peak RSS exceeds this many MB (0 = no bound)")
	flag.Parse()

	// Multipliers must ascend: ru_maxrss is a high-water mark, so running
	// small-to-large is what lets each point's reading bound that point.
	var mults []int
	for _, s := range strings.Split(*mult, ",") {
		m, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || m < 1 || (len(mults) > 0 && m <= mults[len(mults)-1]) {
			fmt.Fprintf(os.Stderr, "netfail-scale: bad -mult %q: want ascending integers >= 1\n", *mult)
			os.Exit(2)
		}
		mults = append(mults, m)
	}
	results, err := runScale(mults, *days, *seed, *maxRSS)
	if len(results) > 0 {
		writeScaleTable(os.Stdout, results)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "netfail-scale:", err)
		os.Exit(1)
	}
}

// scaleResult records one scale point: a sharded capture simulated and
// analyzed end to end at some CENIC multiplier.
type scaleResult struct {
	// multiplier is the campaign size in CENIC-backbone units: the
	// backbone plus multiplier-1 spine/leaf pod domains.
	multiplier int
	shards     int
	links      int
	// events is the total records captured (syslog + LSP frames);
	// captureBytes is the on-disk size of the capture directory.
	events       int64
	captureBytes int64
	// simulateSec and analyzeSec are wall-clock seconds for the two
	// phases.
	simulateSec float64
	analyzeSec  float64
	// peakRSSKB is the process's high-water resident set after the
	// point completed (ru_maxrss).
	peakRSSKB int64
}

// writeScaleTable renders one row per multiplier with throughput
// (events over the two phases' wall-clock), on-disk capture size, and
// peak RSS.
func writeScaleTable(w io.Writer, rs []scaleResult) {
	fmt.Fprintf(w, "%-12s %7s %7s %9s %11s %11s %9s %10s %11s %12s\n",
		"scale", "mult", "shards", "links", "events", "capture MB", "sim s", "analyze s", "events/s", "peak RSS MB")
	for _, r := range rs {
		rate := 0.0
		if sec := r.simulateSec + r.analyzeSec; sec > 0 {
			rate = float64(r.events) / sec
		}
		fmt.Fprintf(w, "%-12s %7d %7d %9d %11d %11.1f %9.1f %10.1f %11.0f %12.1f\n",
			fmt.Sprintf("scale-%dx", r.multiplier), r.multiplier, r.shards, r.links, r.events,
			float64(r.captureBytes)/(1<<20), r.simulateSec, r.analyzeSec,
			rate, float64(r.peakRSSKB)/1024)
	}
}

// runScale executes the scale points in-process: for each multiplier m
// it simulates a sharded capture of the backbone plus m-1 spine/leaf
// pod domains into a temp directory and streams it back through the
// full analysis. The results so far are returned alongside any error.
func runScale(mults []int, days int, seed int64, maxRSSMB int64) ([]scaleResult, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	clk := clock.System()

	var results []scaleResult
	for _, m := range mults {
		r, err := runScalePoint(ctx, clk, m, days, seed)
		if err != nil {
			return results, err
		}
		fmt.Fprintf(os.Stderr, "netfail-scale: scale-%dx: %d events in %.1fs sim + %.1fs analyze, peak RSS %.1f MB\n",
			m, r.events, r.simulateSec, r.analyzeSec, float64(r.peakRSSKB)/1024)
		results = append(results, r)
	}
	if maxRSSMB > 0 {
		peak := results[len(results)-1].peakRSSKB / 1024
		if peak > maxRSSMB {
			return results, fmt.Errorf("peak RSS %d MB exceeds the -max-rss-mb %d MB bound", peak, maxRSSMB)
		}
		fmt.Fprintf(os.Stderr, "netfail-scale: peak RSS %d MB within the %d MB bound\n", peak, maxRSSMB)
	}
	return results, nil
}

func runScalePoint(ctx context.Context, clk clock.Clock, mult, days int, seed int64) (scaleResult, error) {
	dir, err := os.MkdirTemp("", "netfail-scale-")
	if err != nil {
		return scaleResult{}, err
	}
	defer os.RemoveAll(dir)

	cfg := netsim.Config{Seed: seed}
	if days > 0 {
		cfg.Start = netsim.StudyStart
		cfg.End = netsim.StudyStart.Add(time.Duration(days) * 24 * time.Hour)
	}
	var fabric netfail.FabricSpec
	if mult > 1 {
		fabric = netfail.DefaultFabricSpec(mult - 1)
	}

	t0 := clk.Now()
	camp, err := netfail.SimulateToCapture(ctx, cfg, fabric, dir)
	if err != nil {
		return scaleResult{}, fmt.Errorf("scale-%dx simulate: %w", mult, err)
	}
	simSec := clk.Now().Sub(t0).Seconds()

	t1 := clk.Now()
	study, _, err := netfail.AnalyzeCaptureDir(ctx, dir, false)
	if err != nil {
		return scaleResult{}, fmt.Errorf("scale-%dx analyze: %w", mult, err)
	}
	anSec := clk.Now().Sub(t1).Seconds()
	if study.Analysis == nil {
		return scaleResult{}, fmt.Errorf("scale-%dx: empty analysis", mult)
	}

	cm, err := capture.ReadManifestDir(filepath.Join(dir, netfail.CaptureDirName))
	if err != nil {
		return scaleResult{}, err
	}
	sy, ls := cm.Records()
	return scaleResult{
		multiplier:   mult,
		shards:       len(cm.Shards),
		links:        len(camp.Network.Links),
		events:       sy + ls,
		captureBytes: dirBytes(filepath.Join(dir, netfail.CaptureDirName)),
		simulateSec:  simSec,
		analyzeSec:   anSec,
		peakRSSKB:    peakRSSKB(),
	}, nil
}

// dirBytes totals the regular files under dir; 0 on any walk error
// (the size is reporting, not correctness).
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if info, ierr := d.Info(); ierr == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
