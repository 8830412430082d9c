package core

import (
	"context"
	"fmt"
	"time"

	"netfail/internal/match"
	"netfail/internal/obs"
	"netfail/internal/pool"
	"netfail/internal/syslog"
	"netfail/internal/tickets"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// Input assembles everything the comparison consumes. The network is
// typically the config-mined topology; customers come from
// operational knowledge (the simulator's topology carries them).
type Input struct {
	Network *topo.Network
	// Customers lists the customer sites for isolation analysis;
	// may be nil to skip Table 7.
	Customers []*topo.Customer
	// Syslog is the collector's message log.
	Syslog []*syslog.Message
	// Traces, when non-nil, supplies pre-extracted syslog traces and
	// skips the extraction stage; Syslog may then be nil. The analysis
	// driver extracts message by message as its sources feed it and
	// merges shard by shard in manifest order before analysis;
	// benchmark harnesses use it to reuse one extraction across runs.
	Traces *SyslogTraces
	// ISTransitions and IPTransitions are the listener's output.
	ISTransitions []trace.Transition
	IPTransitions []trace.Transition
	// Start and End bound the observation window.
	Start, End time.Time
	// ListenerOffline windows drive sanitization.
	ListenerOffline []trace.Interval
	// Tickets verifies long syslog failures; nil keeps them all.
	Tickets *tickets.Index
	// Window is the matching window (default ten seconds); FlapGap
	// the flapping rule (default ten minutes). MergeWindow is the
	// span within which the two routers' same-direction messages are
	// collapsed into one transition (default sixty seconds — wider
	// than the matching window, since the second router's report can
	// lag well past ten seconds without being a new transition).
	Window      time.Duration
	FlapGap     time.Duration
	MergeWindow time.Duration
	// IncludeMultiLink keeps multi-link-adjacency links in the
	// analysis. Only meaningful when the devices advertised RFC 5307
	// link identifiers (netsim.Config.EnableLinkIDs), which let the
	// listener attribute changes to individual parallel links —
	// otherwise those links simply contribute empty IS-IS traces.
	IncludeMultiLink bool
	// Parallelism bounds the worker pool the pipeline's independent
	// stages (the filters, the two reconstructions, the two
	// sanitizations, the report's sections) run on: <= 0 means one
	// worker per CPU (GOMAXPROCS), 1 runs them in order on the calling
	// goroutine. Stages write disjoint outputs, so every worker count
	// produces byte-identical output: this knob trades wall-clock for
	// cores, never determinism.
	Parallelism int
}

// Analysis is the complete comparison state: the reconstructed and
// sanitized traces from both sources plus the indexes the table
// computations share.
type Analysis struct {
	In     Input
	Years  float64
	Traces *SyslogTraces

	// AnalyzedLinks are the links included in the comparison:
	// multi-link adjacencies excluded (§3.4).
	AnalyzedLinks []*topo.Link

	// Filtered transition streams (analyzed links only).
	SyslogAdj      []trace.Transition
	SyslogPerRtr   []trace.Transition
	SyslogPhysical []trace.Transition
	ISReach        []trace.Transition
	IPReach        []trace.Transition

	// Reconstructions.
	SyslogRec trace.Reconstruction
	ISISRec   trace.Reconstruction

	// Sanitized failure lists and their sanitize reports.
	SyslogFailures []trace.Failure
	ISISFailures   []trace.Failure
	SyslogSanitize trace.SanitizeReport
	ISISSanitize   trace.SanitizeReport

	// Flap indexes over each source's failures.
	SyslogFlaps *trace.FlapIndex
	ISISFlaps   *trace.FlapIndex
}

// DefaultMergeWindow is the span within which the two routers'
// same-direction messages collapse into one transition; see
// Input.MergeWindow.
const DefaultMergeWindow = 60 * time.Second

// Analyze runs the full §3.4 pipeline. Cancellation is honored at
// every stage and shard boundary: if ctx is canceled mid-run, Analyze
// stops dispatching work and returns ctx's error (running shards
// finish first, so no partial per-index state ever escapes).
// Observability state attached to ctx (obs.WithTracer, obs.WithRegistry,
// obs.WithProgress) instruments each stage; it never changes the
// analysis itself.
func Analyze(ctx context.Context, in Input) (*Analysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if in.Network == nil {
		return nil, fmt.Errorf("core: nil network")
	}
	if !in.Start.Before(in.End) {
		return nil, fmt.Errorf("core: empty observation window")
	}
	if in.Window == 0 {
		in.Window = match.DefaultWindow
	}
	if in.FlapGap == 0 {
		in.FlapGap = trace.DefaultFlapGap
	}
	if in.MergeWindow == 0 {
		in.MergeWindow = DefaultMergeWindow
	}
	ctx, done := obs.Stage(ctx, "analyze")
	defer done()

	a := &Analysis{
		In:    in,
		Years: in.End.Sub(in.Start).Hours() / (365.25 * 24),
	}

	// Link namespace: exclude multi-link adjacencies (§3.4), unless
	// the deployment advertises link identifiers.
	analyzed := make(map[topo.LinkID]bool)
	for _, l := range in.Network.Links {
		if in.IncludeMultiLink || !in.Network.IsMultiLink(l.ID) {
			a.AnalyzedLinks = append(a.AnalyzedLinks, l)
			analyzed[l.ID] = true
		}
	}

	workers := pool.Resolve(in.Parallelism)

	// Syslog extraction and filtering. The filters are independent
	// order-preserving scans over disjoint outputs, so they fan out
	// across the pool.
	if in.Traces != nil {
		a.Traces = in.Traces
	} else {
		a.Traces = &SyslogTraces{}
		NewExtractor(in.Network).ExtractInto(ctx, in.Syslog, in.MergeWindow, workers, a.Traces)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	obs.Add(ctx, "syslog.messages", int64(a.Traces.Messages))
	obs.Add(ctx, "syslog.nonlink", int64(a.Traces.NonLink))
	obs.Add(ctx, "drops.syslog.unresolved", int64(a.Traces.Unresolved))

	fctx, fdone := obs.Stage(ctx, "filter")
	err := pool.StagesCtx(fctx, workers,
		func(context.Context) { a.SyslogAdj = filterLinks(a.Traces.MergedAdj, analyzed) },
		func(context.Context) { a.SyslogPerRtr = filterLinks(a.Traces.PerRouterAdj, analyzed) },
		func(context.Context) { a.SyslogPhysical = filterLinks(a.Traces.MergedPhysical, analyzed) },
		func(context.Context) { a.ISReach = filterLinks(in.ISTransitions, analyzed) },
		func(context.Context) { a.IPReach = filterLinks(in.IPTransitions, analyzed) },
	)
	fdone()
	if err != nil {
		return nil, err
	}
	obs.Add(ctx, "transitions.syslog.adj", int64(len(a.SyslogAdj)))
	obs.Add(ctx, "transitions.syslog.physical", int64(len(a.SyslogPhysical)))
	obs.Add(ctx, "transitions.isis", int64(len(a.ISReach)))

	// Reconstruction: the two sources are independent.
	rctx, rdone := obs.Stage(ctx, "reconstruct")
	err = pool.StagesCtx(rctx, workers,
		func(context.Context) { a.SyslogRec = trace.ReconstructPolicy(a.SyslogAdj, trace.HoldPrevious) },
		func(context.Context) { a.ISISRec = trace.ReconstructPolicy(a.ISReach, trace.HoldPrevious) },
	)
	rdone()
	if err != nil {
		return nil, err
	}

	// Sanitization: both sources drop failures spanning listener
	// outages (those periods cannot be compared); syslog failures
	// beyond 24 h are verified against trouble tickets (§4.2).
	verify := func(f trace.Failure) bool { return true }
	if in.Tickets != nil {
		verify = in.Tickets.Verify
	}
	sctx, sdone := obs.Stage(ctx, "sanitize")
	err = pool.StagesCtx(sctx, workers,
		func(context.Context) {
			a.SyslogSanitize = trace.Sanitize(a.SyslogRec.Failures, in.ListenerOffline, trace.LongFailureThreshold, verify)
			a.SyslogFailures = a.SyslogSanitize.Kept
			a.SyslogFlaps = trace.NewFlapIndex(a.SyslogFailures, in.FlapGap)
		},
		func(context.Context) {
			a.ISISSanitize = trace.Sanitize(a.ISISRec.Failures, in.ListenerOffline, 0, nil)
			a.ISISFailures = a.ISISSanitize.Kept
			a.ISISFlaps = trace.NewFlapIndex(a.ISISFailures, in.FlapGap)
		},
	)
	sdone()
	if err != nil {
		return nil, err
	}
	obs.Add(ctx, "failures.syslog", int64(len(a.SyslogFailures)))
	obs.Add(ctx, "failures.isis", int64(len(a.ISISFailures)))

	// Matching accounting exists only to be observed — the report
	// matches failures again for its tables — so it runs only when
	// some observability consumer is attached, and never feeds back
	// into the Analysis.
	if obs.Enabled(ctx) {
		mctx, mdone := obs.Stage(ctx, "match")
		fm := match.Failures(a.ISISFailures, a.SyslogFailures, in.Window)
		obs.Add(mctx, "match.pairs", int64(len(fm.Pairs)))
		obs.Add(mctx, "match.unmatched.isis", int64(len(fm.OnlyA)))
		obs.Add(mctx, "match.unmatched.syslog", int64(len(fm.OnlyB)))
		mdone()
	}
	return a, nil
}

func filterLinks(ts []trace.Transition, keep map[topo.LinkID]bool) []trace.Transition {
	// Capacity hint: nearly every transition survives the multi-link
	// exclusion, so size for the input.
	out := make([]trace.Transition, 0, len(ts))
	for _, t := range ts {
		if keep[t.Link] {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
