// Package netfail reproduces the measurement study "A Comparison of
// Syslog and IS-IS for Network Failure Analysis" (Turner, Levchenko,
// Savage, Snoeren — ACM IMC 2013) as a reusable library.
//
// The original study compared two reconstructions of thirteen months
// of link failures in the CENIC network: one from Cisco syslog
// messages collected over UDP, one from a passive IS-IS listener
// recording link-state PDUs. The operational traces are proprietary,
// so this package pairs the paper's analysis pipeline with a
// calibrated discrete-event simulator of a CENIC-scale network that
// reproduces both observation channels, wire formats included.
//
// The high-level flow:
//
//	study, err := netfail.Run(ctx, netfail.SimulationConfig{Seed: 1},
//	    netfail.WithProgress(func(ev netfail.ProgressEvent) {
//	        log.Println(ev) // simulate started, analyze finished, ...
//	    }))
//	...
//	study.Report(os.Stdout)               // Tables 1-7, Figure 1 data
//	t4 := study.Analysis.Table4()         // or drill into results
//
// Entry points are context-first: cancel the context and the pipeline
// stops at the next stage or shard boundary, returning ctx's error.
// Functional options attach observability — WithTracer records a
// hierarchical span tree of every stage, WithMetrics collects named
// counters, WithProgress streams stage events — and tune the analysis
// (WithMultiLink, WithParallelism). Observability never changes
// results: a run with a tracer attached produces byte-identical
// reports to one without.
//
// Each stage is also available separately: Simulate produces raw
// captures (syslog log, LSP capture, config archive, trouble
// tickets), MineConfigs rebuilds the link namespace from the config
// archive, Listen replays the LSP capture through the IS-IS listener,
// and Analyze runs the comparison. Everything is deterministic in the
// seed.
package netfail

import (
	"context"
	"io"
	"sync"
	"time"

	"netfail/internal/config"
	"netfail/internal/core"
	"netfail/internal/listener"
	"netfail/internal/netsim"
	"netfail/internal/obs"
	"netfail/internal/report"
	"netfail/internal/tickets"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// Re-exported types forming the public API surface.
type (
	// SimulationConfig parameterizes a simulated measurement
	// campaign; the zero value (plus a Seed) reproduces the paper's
	// 13-month CENIC-scale study.
	SimulationConfig = netsim.Config
	// Campaign is a simulation's raw output: captures plus ground
	// truth.
	Campaign = netsim.Campaign
	// Analysis exposes the comparison results (Table1 … Table7,
	// Figure1, WindowKnee, PolicyAblation).
	Analysis = core.Analysis
	// ListenerResult is the IS-IS listener's reconstruction.
	ListenerResult = listener.Result
	// TopologySpec shapes the generated network.
	TopologySpec = topo.Spec
	// WorkloadParams and ImpairParams expose the calibrated failure
	// and impairment models for ablation studies.
	WorkloadParams = netsim.WorkloadParams
	ImpairParams   = netsim.ImpairParams

	// Tracer records a hierarchical tree of timed spans — one per
	// pipeline stage and pool worker. Attach with WithTracer; render
	// with WriteTree (text) or WriteChromeTrace (trace_event JSON).
	Tracer = obs.Tracer
	// Metrics is a registry of named counters and gauges the pipeline
	// stages populate. Attach with WithMetrics; it renders via String
	// (JSON), Snapshot, or WriteText.
	Metrics = obs.Registry
	// ProgressEvent is one entry in the progress stream: a stage
	// starting or finishing, or a parallel shard completing.
	ProgressEvent = obs.Event
	// ProgressFunc consumes progress events. It may be called
	// concurrently from pool workers; the consumer synchronizes.
	ProgressFunc = obs.ProgressFunc
)

// Progress event kinds, re-exported for ProgressFunc consumers.
const (
	StageStarted  = obs.StageStarted
	StageFinished = obs.StageFinished
	ShardDone     = obs.ShardDone
)

// NewTracer returns an empty span tracer ready for WithTracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewMetrics returns an empty metrics registry ready for WithMetrics.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// AnalysisOptions tune the comparison without changing the captures:
// the value the functional options (WithMultiLink, WithParallelism)
// fill in.
type AnalysisOptions struct {
	// IncludeMultiLink keeps multi-link-adjacency links in the
	// analysis; pair with SimulationConfig.EnableLinkIDs.
	IncludeMultiLink bool
	// Parallelism bounds the analysis worker pool: <= 0 means one
	// worker per CPU, 1 forces the sequential reference path. Every
	// setting produces byte-identical results.
	Parallelism int
}

// options is the resolved functional-option state.
type options struct {
	ao       AnalysisOptions
	tracer   *Tracer
	metrics  *Metrics
	progress ProgressFunc
	storeDir string
}

// Option configures a Run, Analyze, or Simulate call.
type Option func(*options)

// WithMultiLink keeps multi-link-adjacency links in the analysis;
// pair with SimulationConfig.EnableLinkIDs.
func WithMultiLink(include bool) Option { return func(o *options) { o.ao.IncludeMultiLink = include } }

// WithParallelism bounds the analysis worker pool: <= 0 means one
// worker per CPU, 1 forces the sequential reference path. Every
// setting produces byte-identical results.
func WithParallelism(n int) Option { return func(o *options) { o.ao.Parallelism = n } }

// WithTracer records a span per pipeline stage and pool worker into t.
func WithTracer(t *Tracer) Option { return func(o *options) { o.tracer = t } }

// WithMetrics collects the pipeline's named counters and gauges into m.
func WithMetrics(m *Metrics) Option { return func(o *options) { o.metrics = m } }

// WithProgress streams stage and shard events to fn as the pipeline
// runs. fn may be called concurrently; it must synchronize.
func WithProgress(fn ProgressFunc) Option { return func(o *options) { o.progress = fn } }

// WithStoreDir makes Run, Analyze, and AnalyzeCaptureDir write an
// indexed failure store (internal/store) into dir at the end of the
// pipeline: CRC-framed failure/transition/message segments with
// sparse time indexes and per-link/per-host postings, plus a manifest
// carrying the catalogs and the precomputed agreement tables. Query
// it with netfail-query, the /api/v1 HTTP surface, or the store
// package's Go API.
func WithStoreDir(dir string) Option { return func(o *options) { o.storeDir = dir } }

// fold applies opts in order.
func fold(opts []Option) (o options) {
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// resolve folds opts and instruments ctx with any attached
// observability consumers.
func resolve(ctx context.Context, opts []Option) (context.Context, options) {
	o := fold(opts)
	return o.instrument(ctx), o
}

// instrument attaches o's observability consumers to ctx.
func (o options) instrument(ctx context.Context) context.Context {
	ctx = obs.WithTracer(ctx, o.tracer)
	ctx = obs.WithRegistry(ctx, o.metrics)
	return obs.WithProgress(ctx, o.progress)
}

// Study bundles the artifacts of one end-to-end run.
type Study struct {
	// Campaign holds the raw captures and ground truth.
	Campaign *Campaign
	// Mined is the topology reconstructed from the config archive —
	// the link namespace both pipelines share.
	Mined *config.Mined
	// Listener is the IS-IS reconstruction.
	Listener *ListenerResult
	// Tickets is the generated trouble-ticket index.
	Tickets *tickets.Index
	// Analysis is the full comparison.
	Analysis *Analysis

	// tables holds the report's sections for tablesOf, computed once
	// for whichever of the store writer and Report asks first.
	mu       sync.Mutex
	tables   *core.Tables
	tablesOf *Analysis
}

// Simulate runs a measurement campaign. Cancellation is checked
// between simulator events; observability options trace the
// simulation phases.
func Simulate(ctx context.Context, cfg SimulationConfig, opts ...Option) (*Campaign, error) {
	ctx, _ = resolve(ctx, opts)
	return netsim.Run(ctx, cfg)
}

// MineConfigs reconstructs the network from a campaign's config
// archive, exactly as the original study mined CENIC's archive.
func MineConfigs(camp *Campaign) (*config.Mined, error) {
	return config.Mine(camp.Archive)
}

// Listen replays a campaign's LSP capture through the passive IS-IS
// listener, resolving against the given (typically mined) network.
// Cancellation is checked every cancelStride records; a processing
// error identifies the failing record by index and capture timestamp.
func Listen(ctx context.Context, net *topo.Network, camp *Campaign) (*ListenerResult, error) {
	// A driver with no campaign window: it can listen, not compare.
	d, err := NewDriver(&Study{Mined: &config.Mined{Network: net}}, false)
	if err != nil {
		return nil, err
	}
	return d.listen(ctx, memoryShards(camp))
}

// GenerateTickets builds the trouble-ticket corpus from a campaign's
// ground truth, for the long-failure verification step.
func GenerateTickets(camp *Campaign) *tickets.Index {
	return tickets.NewIndex(ticketCorpus(camp))
}

// ticketCorpus is the one place that knows the seed offset the in-RAM
// index and a campaign directory's tickets file must share.
func ticketCorpus(camp *Campaign) []tickets.Ticket {
	return tickets.Generate(camp.Config.Seed+1, camp.GroundTruthFailures(), tickets.DefaultParams())
}

// Run executes the complete pipeline: simulate, mine configs, listen,
// generate tickets, analyze. Cancel ctx to stop at the next stage or
// shard boundary with ctx's error.
func Run(ctx context.Context, cfg SimulationConfig, opts ...Option) (*Study, error) {
	camp, err := Simulate(ctx, cfg, opts...)
	if err != nil {
		return nil, err
	}
	return Analyze(ctx, camp, opts...)
}

// Analyze runs the analysis pipeline over an existing campaign: mine
// its config archive, generate tickets, and hand the in-RAM captures to
// the driver.
func Analyze(ctx context.Context, camp *Campaign, opts ...Option) (*Study, error) {
	ctx, _ = resolve(ctx, opts)
	mined, err := mine(ctx, camp.Archive)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d, err := NewDriver(&Study{Campaign: camp, Mined: mined, Tickets: GenerateTickets(camp)}, false, opts...)
	if err != nil {
		return nil, err
	}
	return d.run(ctx, memoryShards(camp))
}

// Report renders every table and figure of the paper's evaluation
// section, with the published values alongside. The independent table
// computations fan out across the analysis worker pool (the
// Parallelism knob the study was analyzed with); output is
// byte-identical for every worker count.
func (s *Study) Report(w io.Writer) error {
	return s.ReportContext(context.Background(), w)
}

// ReportContext is Report with cancellation and observability: cancel
// ctx to stop rendering at the next section boundary; WithTracer and
// friends instrument the per-section rendering (reuse the tracer from
// the originating Run call to get one contiguous span tree).
func (s *Study) ReportContext(ctx context.Context, w io.Writer, opts ...Option) error {
	ctx, _ = resolve(ctx, opts)
	ctx, done := obs.Stage(ctx, "report")
	defer done()
	t, err := s.reportTables(ctx)
	if err != nil {
		return err
	}
	return report.Write(w, t)
}

// reportTables returns the tables of the study's analysis, computing
// them on the analysis's worker pool the first time. A computation ctx
// cancels is not kept: the next call starts over.
func (s *Study) reportTables(ctx context.Context) (*core.Tables, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tables == nil || s.tablesOf != s.Analysis {
		t, err := s.Analysis.TablesContext(ctx, s.Campaign.Archive.FileCount(),
			s.Campaign.Counts.LSPUpdates, s.Analysis.In.Parallelism)
		if err != nil {
			return nil, err
		}
		s.tables, s.tablesOf = &t, s.Analysis
	}
	return s.tables, nil
}

// Failure re-exports the trace failure record for downstream
// consumers of Analysis fields.
type Failure = trace.Failure

// Episode re-exports the flapping-episode record.
type Episode = trace.Episode

// FlapEpisodes groups failures into flapping episodes using the
// paper's ten-minute rule (or any other gap).
func FlapEpisodes(failures []Failure, gap time.Duration) []Episode {
	return trace.Episodes(failures, gap)
}

// DefaultFlapGap is the paper's ten-minute flapping rule.
const DefaultFlapGap = trace.DefaultFlapGap
