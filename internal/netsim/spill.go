package netsim

import (
	"context"
	"fmt"
	"time"

	"netfail/internal/capture"
	"netfail/internal/config"
	"netfail/internal/pool"
	"netfail/internal/topo"
)

// BackboneDomain is the manifest domain label for the CENIC-style
// backbone — always shard 0 of a sharded capture.
const BackboneDomain = "backbone"

// domainSeedStride separates per-domain seeds so domains draw
// independent workloads from one campaign seed. Domain 0 (the
// backbone) keeps the campaign seed itself, so its shard holds the
// records Run of the same config accumulates in RAM.
const domainSeedStride = 1_000_003

// RunShardedToCapture executes a campaign that streams its captures to
// a capture directory instead of accumulating them in RAM: the backbone
// from cfg.Spec as domain 0 plus fabric.Domains spine/leaf pods (none
// for a zero FabricSpec), each simulated independently (domains are
// link-disjoint IS-IS areas) and captured to its own shard; peak
// residency is the spill sinks' reorder horizon, not the campaign's
// event volume. Per-domain simulations fan out over
// workers goroutines; shards are opened in domain order before the
// fan-out, so the manifest order — and therefore everything the
// analysis derives from it — never depends on which domain finishes
// first.
//
// The returned Campaign describes the combined network — the merged
// topology, one config archive over the union, ground truth and
// counts aggregated in domain order — and carries no Syslog or LSPLog
// slice: those live on disk.
func RunShardedToCapture(ctx context.Context, cfg Config, fabric topo.FabricSpec, dir string, workers int) (*Campaign, error) {
	cfg.fillDefaults()
	if !cfg.Start.Before(cfg.End) {
		return nil, fmt.Errorf("netsim: empty observation window")
	}
	backbone, err := topo.Generate(cfg.Spec)
	if err != nil {
		return nil, err
	}
	pods, err := topo.Fabric(fabric)
	if err != nil {
		return nil, err
	}
	domains := make([]topo.Domain, 0, 1+len(pods))
	domains = append(domains, topo.Domain{Name: BackboneDomain, Net: backbone})
	domains = append(domains, pods...)

	w, err := capture.NewWriter(dir)
	if err != nil {
		return nil, err
	}
	// A domain's slot is cleared once its simulation has closed the
	// writer; whatever is still set when the run fails — domains never
	// dispatched, or all of them when a later shard cannot be opened —
	// is closed on the way out.
	sws := make([]*capture.ShardWriter, len(domains))
	defer func() {
		for _, sw := range sws {
			if sw != nil {
				sw.Close()
			}
		}
	}()
	for i, d := range domains {
		sws[i], err = w.Shard(d.Name, len(d.Net.RouterNames), len(d.Net.Links))
		if err != nil {
			return nil, err
		}
	}

	camps := make([]*Campaign, len(domains))
	errs := make([]error, len(domains))
	perr := pool.ForEachCtx(ctx, len(domains), pool.Resolve(workers), func(ctx context.Context, i int) {
		dcfg := cfg
		dcfg.Seed = cfg.Seed + int64(i)*domainSeedStride
		sw := sws[i]
		camps[i], errs[i] = run(ctx, dcfg, domains[i].Net, func(*Campaign) (eventSink, error) {
			return &spillSink{sw: sw}, nil
		}, true)
		if cerr := sw.Close(); errs[i] == nil {
			errs[i] = cerr
		}
		sws[i] = nil
	})
	if perr != nil {
		return nil, perr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	merged, err := topo.Merge(netsOf(domains)...)
	if err != nil {
		return nil, err
	}
	camp := &Campaign{
		Config:          cfg,
		Network:         merged,
		Archive:         config.GenerateArchive(merged, cfg.Start.Add(-24*time.Hour), cfg.End, 7*24*time.Hour),
		ListenerOffline: cfg.ListenerOffline,
	}
	for _, dc := range camps {
		camp.GroundTruth = append(camp.GroundTruth, dc.GroundTruth...)
		camp.Counts.SyslogSent += dc.Counts.SyslogSent
		camp.Counts.SyslogReceived += dc.Counts.SyslogReceived
		camp.Counts.LSPUpdates += dc.Counts.LSPUpdates
		camp.Counts.ContentLSPs += dc.Counts.ContentLSPs
	}
	camp.Counts.GroundTruthFailures = len(camp.GroundTruth)
	if err := w.Finish(); err != nil {
		return nil, err
	}
	return camp, nil
}

func netsOf(domains []topo.Domain) []*topo.Network {
	nets := make([]*topo.Network, len(domains))
	for i, d := range domains {
		nets[i] = d.Net
	}
	return nets
}
