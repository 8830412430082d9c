package netfail

import (
	"context"
	"path/filepath"

	"netfail/internal/netsim"
	"netfail/internal/topo"
)

// FabricSpec shapes the spine/leaf pods of a multi-domain campaign;
// see SimulateToCapture. DefaultFabricSpec sizes each pod so one
// domain is roughly one CENIC backbone's worth of links.
type FabricSpec = topo.FabricSpec

// DefaultFabricSpec returns the default pod shape (10 spines x 30
// leaves, ~300 links per domain) for the given domain count.
func DefaultFabricSpec(domains int) FabricSpec { return topo.DefaultFabricSpec(domains) }

// SimulateToCapture runs a measurement campaign that spills its
// observation streams to disk instead of accumulating them in RAM,
// writing a complete campaign directory:
//
//	dir/
//	  capture/            sharded segments + capture manifest
//	  manifest.json, configs/, tickets.json, customers.json
//	                      as WriteCampaignMeta writes them
//
// The CENIC-scale backbone from cfg is shard 0 — event for event the
// campaign Simulate produces, just streamed to disk — joined by
// fabric.Domains spine/leaf pod domains (none for a zero FabricSpec),
// each simulated independently (they are link-disjoint IS-IS areas)
// and captured to its own shard; per-domain simulations fan out over
// the WithParallelism worker pool.
//
// The returned Campaign carries everything except the Syslog and
// LSPLog slices, which live on disk; AnalyzeCaptureDir streams them
// back. Peak residency is one domain's working set, never the
// campaign's event volume.
func SimulateToCapture(ctx context.Context, cfg SimulationConfig, fabric FabricSpec, dir string, opts ...Option) (*Campaign, error) {
	ctx, o := resolve(ctx, opts)
	camp, err := netsim.RunShardedToCapture(ctx, cfg, fabric, filepath.Join(dir, CaptureDirName), o.ao.Parallelism)
	if err != nil {
		return nil, err
	}
	if err := WriteCampaignMeta(dir, camp); err != nil {
		return nil, err
	}
	return camp, nil
}
