package netsim

import (
	"context"
	"fmt"
	"time"

	"netfail/internal/config"
	"netfail/internal/device"
	"netfail/internal/obs"
	"netfail/internal/syslog"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// RefreshMode controls how periodic LSP refreshes (the bulk of the
// 11 M updates in Table 1) are handled.
type RefreshMode int

const (
	// RefreshCounted computes the refresh volume analytically and
	// only materializes content-bearing LSPs. The default: identical
	// analysis results at a fraction of the cost.
	RefreshCounted RefreshMode = iota
	// RefreshFull schedules every periodic refresh as a real event
	// and delivers the re-encoded LSP to the listener capture.
	RefreshFull
)

// Config parameterizes a simulation campaign.
type Config struct {
	Seed int64
	// Spec shapes the network; zero value means topo.DefaultSpec.
	Spec topo.Spec
	// Start and End bound the observation window. Zero values mean
	// the paper's study period (Oct 20 2010 – Nov 11 2011).
	Start, End time.Time
	// Workload and Impair default to the calibrated models when zero.
	Workload *WorkloadParams
	Impair   *ImpairParams
	// ListenerOffline lists windows during which the IS-IS listener
	// recorded nothing. Nil means the default two maintenance
	// windows.
	ListenerOffline []trace.Interval
	// RefreshMode and RefreshInterval control periodic LSP refresh.
	RefreshMode     RefreshMode
	RefreshInterval time.Duration
	// EnableLinkIDs turns on the RFC 5307 link-identifier sub-TLVs
	// on every device: the paper's footnote-1 extension that makes
	// multi-link adjacencies differentiable. Off by default to match
	// the CENIC deployment.
	EnableLinkIDs bool
	// InBandSyslog models syslog's in-band transport mechanistically:
	// a message is lost outright when its router has no path to the
	// collector at emission time (the collector sits on the first
	// core router). Off by default — the calibrated blackout model
	// already absorbs this effect statistically.
	InBandSyslog bool
}

// StudyStart and StudyEnd are the paper's measurement period.
var (
	StudyStart = time.Date(2010, time.October, 20, 0, 0, 0, 0, time.UTC)
	StudyEnd   = time.Date(2011, time.November, 11, 0, 0, 0, 0, time.UTC)
)

func (c *Config) fillDefaults() {
	if c.Spec.CoreRouters == 0 {
		c.Spec = topo.DefaultSpec()
		c.Spec.Seed = c.Seed
	}
	if c.Start.IsZero() {
		c.Start = StudyStart
	}
	if c.End.IsZero() {
		c.End = StudyEnd
	}
	if c.Workload == nil {
		w := DefaultWorkload()
		c.Workload = &w
	}
	if c.Impair == nil {
		im := DefaultImpairments()
		c.Impair = &im
	}
	if c.ListenerOffline == nil {
		c.ListenerOffline = []trace.Interval{
			{Start: c.Start.Add(80 * 24 * time.Hour), End: c.Start.Add(80*24*time.Hour + 30*time.Hour)},
			{Start: c.Start.Add(240 * 24 * time.Hour), End: c.Start.Add(240*24*time.Hour + 52*time.Hour)},
		}
	}
	if c.RefreshInterval == 0 {
		c.RefreshInterval = 15 * time.Minute
	}
}

// CapturedLSP is one LSP as the listener's capture file records it:
// arrival time plus raw wire bytes.
type CapturedLSP struct {
	Time time.Time
	Data []byte
}

// Counts summarizes campaign volume for Table 1.
type Counts struct {
	// SyslogReceived is the number of messages that survived to the
	// collector; SyslogSent the number emitted by devices.
	SyslogReceived int
	SyslogSent     int
	// LSPUpdates counts all LSP receptions at the listener,
	// including periodic refreshes (analytic under RefreshCounted).
	LSPUpdates int
	// ContentLSPs counts LSPs that carried a state change.
	ContentLSPs int
	// GroundTruthFailures is the number of true outages injected.
	GroundTruthFailures int
}

// Campaign is everything a simulation run produces: the raw captures
// the analysis pipelines consume, plus ground truth for calibration.
type Campaign struct {
	Config  Config
	Network *topo.Network
	// Archive is the router-config archive for mining.
	Archive *config.Archive
	// Syslog is the collector's received message log, time-ordered.
	Syslog []*syslog.Message
	// LSPLog is the listener's capture, time-ordered. Empty spans
	// correspond to ListenerOffline windows.
	LSPLog []CapturedLSP
	// GroundTruth is the injected failure list (not available to a
	// real analyst; used for tickets and calibration tests).
	GroundTruth []GroundTruthFailure
	// ListenerOffline echoes the windows for sanitization.
	ListenerOffline []trace.Interval
	Counts          Counts
}

// Run executes a campaign. Cancellation is checked between scheduler
// events; a canceled run returns ctx's error and no campaign.
// Observability attached to ctx (obs package) traces the simulation
// phases without affecting the generated captures.
func Run(ctx context.Context, cfg Config) (*Campaign, error) {
	return run(ctx, cfg, nil, newMemorySink, false)
}

// newMemorySink is Run's sink factory: classic in-RAM captures.
func newMemorySink(camp *Campaign) (eventSink, error) {
	return &memorySink{camp: camp}, nil
}

// run is the campaign engine behind Run and RunShardedToCapture: the
// sink is the only degree of freedom, so every capture target replays
// the identical RNG streams and event schedule. net overrides
// topology generation when non-nil (the sharded runner pre-generates
// per-domain networks); skipArchive elides the config archive for
// per-domain runs whose caller builds one combined archive instead.
func run(ctx context.Context, cfg Config, net *topo.Network, mkSink func(*Campaign) (eventSink, error), skipArchive bool) (*Campaign, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	if !cfg.Start.Before(cfg.End) {
		return nil, fmt.Errorf("netsim: empty observation window")
	}
	ctx, done := obs.Stage(ctx, "simulate")
	defer done()

	if net == nil {
		_, topoSpan := obs.StartSpan(ctx, "topology")
		var err error
		net, err = topo.Generate(cfg.Spec)
		topoSpan.End()
		if err != nil {
			return nil, err
		}
	}
	root := newRNG(cfg.Seed)
	workRNG := root.fork(newRNG(0))
	impairRNG := root.fork(newRNG(0))

	_, cfgSpan := obs.StartSpan(ctx, "configs")
	camp := &Campaign{
		Config:          cfg,
		Network:         net,
		ListenerOffline: cfg.ListenerOffline,
	}
	if !skipArchive {
		camp.Archive = config.GenerateArchive(net, cfg.Start.Add(-24*time.Hour), cfg.End, 7*24*time.Hour)
	}
	cfgSpan.End()
	_, wlSpan := obs.StartSpan(ctx, "workload")
	camp.GroundTruth = GenerateWorkload(workRNG, net, *cfg.Workload, cfg.Start, cfg.End)
	wlSpan.End()
	camp.Counts.GroundTruthFailures = len(camp.GroundTruth)

	sink, err := mkSink(camp)
	if err != nil {
		return nil, err
	}
	sim := &simulation{
		cfg:     cfg,
		net:     net,
		camp:    camp,
		sink:    sink,
		rng:     impairRNG,
		forked:  newRNG(0),
		sched:   NewScheduler(cfg.Start),
		devices: make([]*device.Router, len(net.RouterNames)),
		ends:    make(map[topo.LinkID][2]*device.Interface, len(net.Links)),
	}
	if cfg.InBandSyslog {
		sim.graph = topo.NewGraph(net)
		sim.gtDown = sim.graph.NewSweep()
	}
	if cfg.Impair.RateLimitPerMin > 0 {
		sim.buckets = make(map[string]*tokenBucket)
	}
	byName := make(map[string]*device.Router, len(net.RouterNames))
	for i, name := range net.RouterNames {
		r := net.Routers[name]
		dialect := syslog.DialectIOS
		if r.Class == topo.Core {
			dialect = syslog.DialectIOSXR
		}
		d := device.New(net, r, dialect)
		d.LinkIDCapable = cfg.EnableLinkIDs
		sim.devices[i], byName[name] = d, d
	}
	for _, l := range net.Links {
		sim.ends[l.ID] = [2]*device.Interface{byName[l.A.Host].Interface(l.ID), byName[l.B.Host].Interface(l.ID)}
	}

	// Initial database sync: when the listener joins the IS-IS
	// network it receives every router's current LSP via CSNP
	// exchange, establishing its baseline. The same resync happens
	// whenever the listener returns from an offline window.
	sim.scheduleSync(cfg.Start)
	for _, w := range cfg.ListenerOffline {
		sim.scheduleSync(w.End)
	}
	sim.scheduleFailures()
	sim.schedulePseudoFailures()
	sim.scheduleBlips()
	sim.scheduleNoise()
	if cfg.RefreshMode == RefreshFull {
		sim.scheduleRefreshes()
	}
	ectx, evSpan := obs.StartSpan(ctx, "events")
	executed, err := sim.sched.RunCtx(ectx, cfg.End)
	evSpan.Add("events", int64(executed))
	evSpan.End()
	if err != nil {
		return nil, err
	}

	if err := sink.finish(); err != nil {
		return nil, err
	}
	if cfg.RefreshMode == RefreshCounted {
		camp.Counts.LSPUpdates = camp.Counts.ContentLSPs + sim.analyticRefreshCount()
	}
	obs.Add(ctx, "sim.syslog.sent", int64(camp.Counts.SyslogSent))
	obs.Add(ctx, "sim.syslog.received", int64(camp.Counts.SyslogReceived))
	obs.Add(ctx, "sim.lsps.content", int64(camp.Counts.ContentLSPs))
	obs.Add(ctx, "sim.failures.injected", int64(camp.Counts.GroundTruthFailures))
	return camp, nil
}

// simulation carries the mutable run state.
type simulation struct {
	cfg     Config
	net     *topo.Network
	camp    *Campaign
	sink    eventSink
	rng     *rng
	forked  *rng // re-seeded for each per-link or per-router stream
	sched   *Scheduler
	devices []*device.Router // in RouterNames order
	// ends holds each link's two interfaces, A side first, resolved
	// once so a failure costs one lookup rather than one per message.
	ends map[topo.LinkID][2]*device.Interface

	// In-band syslog state: the graph and the ground-truth down set
	// swept over it. The collector sits at node 0, the first router.
	graph  *topo.Graph
	gtDown *topo.Sweep

	// Per-device syslog rate-limit buckets (Cisco "logging
	// rate-limit"), active when RateLimitPerMin > 0.
	buckets map[string]*tokenBucket
}

// tokenBucket is the per-device rate limiter state.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// rateLimited consumes one token from host's bucket, refilling by
// elapsed simulated time; it reports true when the message must be
// dropped at the source.
func (s *simulation) rateLimited(host string, at time.Time) bool {
	im := s.cfg.Impair
	if im.RateLimitPerMin <= 0 {
		return false
	}
	burst := float64(im.RateLimitBurst)
	if burst < 1 {
		burst = 1
	}
	b := s.buckets[host]
	if b == nil {
		b = &tokenBucket{tokens: burst, last: at}
		s.buckets[host] = b
	}
	if at.After(b.last) {
		b.tokens += at.Sub(b.last).Minutes() * im.RateLimitPerMin
		if b.tokens > burst {
			b.tokens = burst
		}
		b.last = at
	}
	if b.tokens < 1 {
		return true
	}
	b.tokens--
	return false
}

// linkStateChanged records a ground-truth link edge for the in-band
// transport model.
func (s *simulation) linkStateChanged(link topo.LinkID, down bool) {
	if !s.cfg.InBandSyslog {
		return
	}
	delta := -1
	if down {
		delta = 1
	}
	s.gtDown.Add(s.gtDown.Link(link), delta)
}

// collectorReachable reports whether host currently has a path to the
// collector.
func (s *simulation) collectorReachable(host string) bool {
	if !s.cfg.InBandSyslog {
		return true
	}
	v, ok := s.graph.Node(host)
	return ok && s.gtDown.Connected(v, 0)
}

// listenerOnline reports whether the listener records at t.
func (s *simulation) listenerOnline(t time.Time) bool {
	for _, w := range s.camp.ListenerOffline {
		if w.Contains(t) {
			return false
		}
	}
	return true
}

// deliverLSP floods a device's current LSP to the listener.
func (s *simulation) deliverLSP(d *device.Router, content bool) {
	wire, err := d.EncodeLSP()
	if err != nil {
		panic(fmt.Sprintf("netsim: encoding LSP for %s: %v", d.Info.Name, err))
	}
	arrive := s.sched.Now().Add(s.rng.uniformDur(0, s.cfg.Impair.FloodDelayMax))
	s.sched.At(arrive, func() {
		if !s.listenerOnline(s.sched.Now()) {
			return
		}
		if content {
			s.camp.Counts.ContentLSPs++
		}
		s.camp.Counts.LSPUpdates++
		if content || s.cfg.RefreshMode == RefreshFull {
			s.sink.lsp(s.sched.Now(), wire)
		}
	})
}

// emitSyslog sends a message through the lossy transport. Under the
// in-band model a message from a router with no path to the collector
// never arrives, regardless of the loss draw.
func (s *simulation) emitSyslog(m syslog.Message, lossProb float64) {
	s.camp.Counts.SyslogSent++
	// Draw the loss regardless of reachability so the in-band model
	// perturbs only delivery, never the random stream (identical
	// seeds must replay the identical workload either way).
	lost := s.rng.bernoulli(lossProb)
	if s.rateLimited(m.Hostname, m.Timestamp) {
		return
	}
	if !s.collectorReachable(m.Hostname) {
		return
	}
	if lost {
		return
	}
	s.camp.Counts.SyslogReceived++
	s.sink.syslog(s.sched.Now(), m)
}

// emitLinkMessages sends the %LINK/%LINEPROTO pair for a physical
// transition on ifc.
func (s *simulation) emitLinkMessages(ifc *device.Interface, up bool, lossProb float64) {
	for _, m := range ifc.LinkMessages(s.sched.Now(), up) {
		s.emitSyslog(m, lossProb)
	}
}

// lossProb returns the applicable loss probability.
func (s *simulation) lossProb(inFlap bool) float64 {
	if inFlap {
		return s.cfg.Impair.LossFlap
	}
	return s.cfg.Impair.LossBase
}

// scheduleFailures drives every ground-truth failure through both
// observation channels.
func (s *simulation) scheduleFailures() {
	for i := range s.camp.GroundTruth {
		f := s.camp.GroundTruth[i]
		s.sched.At(f.Start, func() { s.failLink(f) })
	}
}

// failLink plays out one failure: detection, LSP origination, syslog
// emission, recovery.
func (s *simulation) failLink(f GroundTruthFailure) {
	im := s.cfg.Impair
	ends := s.ends[f.Link]
	loss := s.lossProb(f.InFlap)

	// Correlated loss: the failure's entire syslog footprint may be
	// blacked out (§4.1-style burst loss).
	blackoutProb := im.BlackoutBase
	if f.InFlap {
		blackoutProb = im.BlackoutFlap
	} else if im.LongFailureCutoff > 0 && f.Duration() > im.LongFailureCutoff {
		blackoutProb = im.BlackoutLong
	}
	blackout := s.rng.bernoulli(blackoutProb)
	if blackout {
		loss = 1
	}
	// Onset burst loss: only the Down messages are swallowed.
	downLoss := loss
	if !blackout && s.rng.bernoulli(im.DownBlackoutProb) {
		downLoss = 1
	}

	// The whole failure may be invisible to the listener: sub-second
	// resets can come and go before LSP generation fires.
	suppressLSP := f.Duration() < im.LSPSuppressShort && s.rng.bernoulli(im.LSPSuppressProb)

	// Ground truth for the in-band transport model.
	s.linkStateChanged(f.Link, true)

	// Physical-cause failures take the interface down: %LINK and
	// %LINEPROTO messages immediately, IP-reachability withdrawal
	// after the LSP-generation backoff. A blip shorter than the
	// backoff never withdraws the prefix at all.
	if f.Cause == CausePhysical {
		ipDelay := s.rng.uniformDur(0, im.IPWithdrawDelayMax)
		withdraw := ipDelay < f.Duration()
		for _, ifc := range ends {
			at := s.sched.Now().Add(s.rng.uniformDur(0, 300*time.Millisecond))
			s.sched.At(at, func() { s.emitLinkMessages(ifc, false, loss) })
			if withdraw {
				jitter := s.rng.uniformDur(0, time.Second)
				s.sched.At(f.Start.Add(ipDelay+jitter), func() {
					if ifc.SetPhysical(false) && !suppressLSP {
						s.deliverLSP(ifc.Router, true)
					}
				})
			}
		}
	}

	// Adjacency-down detection per endpoint.
	slow := f.Cause == CausePhysical && s.rng.bernoulli(im.SlowDetectProb)
	var base time.Duration
	if slow {
		base = im.HoldExpiryMin + s.rng.uniformDur(0, im.HoldExpiryMax-im.HoldExpiryMin)
	} else {
		base = s.rng.uniformDur(0, im.DetectFastMax)
	}
	reason := "hold time expired"
	if f.Cause == CausePhysical {
		reason = "interface state change"
	}
	for i, ifc := range ends {
		detect := base
		if i == 1 {
			detect += s.rng.uniformDur(0, im.EndpointSkew)
		}
		// Detection cannot outlive the failure for flap blips; clamp
		// so Down precedes the recovery.
		if detect >= f.Duration() {
			detect = f.Duration() * 3 / 4
		}
		s.sched.At(f.Start.Add(detect), func() {
			if !ifc.SetAdjacency(false) {
				return
			}
			emit := s.sched.Now().Add(s.rng.uniformDur(0, im.ProcDelayMax))
			s.emitSyslog(ifc.AdjMessage(emit, false, reason), downLoss)
			if !suppressLSP {
				s.deliverLSP(ifc.Router, true)
			}
		})
	}

	// Spurious retransmission of the Down during the failure.
	if s.rng.bernoulli(im.SpuriousDownProb) && f.Duration() > 4*time.Second {
		ifc := ends[0]
		if s.rng.bernoulli(0.5) {
			ifc = ends[1]
		}
		at := f.Start.Add(f.Duration()/2 + s.rng.uniformDur(0, f.Duration()/4))
		s.sched.At(at, func() { s.emitSyslog(ifc.AdjMessage(s.sched.Now(), false, reason), loss) })
	}

	s.sched.At(f.End, func() { s.recoverLink(f, suppressLSP, blackout) })
}

// recoverLink plays out the end of a failure.
func (s *simulation) recoverLink(f GroundTruthFailure, suppressLSP, blackout bool) {
	im := s.cfg.Impair
	s.linkStateChanged(f.Link, false)
	ends := s.ends[f.Link]
	loss := s.lossProb(f.InFlap)
	if blackout {
		loss = 1
	}

	if f.Cause == CausePhysical {
		for _, ifc := range ends {
			at := s.sched.Now().Add(s.rng.uniformDur(0, 300*time.Millisecond))
			s.sched.At(at, func() { s.emitLinkMessages(ifc, true, loss) })
			// IP reachability returns once the interface is up,
			// usually ahead of the adjacency handshake.
			ipAt := s.sched.Now().Add(s.rng.uniformDur(0, im.IPRestoreMax))
			s.sched.At(ipAt, func() {
				if ifc.SetPhysical(true) && !suppressLSP {
					s.deliverLSP(ifc.Router, true)
				}
			})
		}
	}

	// Adjacency restoration: three-way handshake, endpoint-skewed.
	// During flapping the adjacency bounces quickly; otherwise the
	// full handshake delay applies.
	var first, skew time.Duration
	if f.InFlap {
		first = s.rng.uniformDur(500*time.Millisecond, 2500*time.Millisecond)
		skew = s.rng.uniformDur(0, 2*time.Second)
	} else {
		first = im.AdjRestoreMin + s.rng.uniformDur(0, im.AdjRestoreMax-im.AdjRestoreMin)
		skew = s.rng.uniformDur(0, im.RestoreSkewMax)
	}
	order := ends
	if s.rng.bernoulli(0.5) {
		order[0], order[1] = order[1], order[0]
	}
	for i, ifc := range order {
		delay := first
		if i == 1 {
			delay += skew
		}
		s.sched.At(f.End.Add(delay), func() {
			if !ifc.SetAdjacency(true) {
				return
			}
			emit := s.sched.Now().Add(s.rng.uniformDur(0, im.ProcDelayMax))
			s.emitSyslog(ifc.AdjMessage(emit, true, "new adjacency"), loss)
			if !suppressLSP {
				s.deliverLSP(ifc.Router, true)
			}
		})
	}

	// Redundant Up after recovery.
	if s.rng.bernoulli(im.SpuriousUpProb) {
		ifc := order[0]
		at := f.End.Add(first + skew + time.Second + s.rng.uniformDur(0, time.Minute))
		s.sched.At(at, func() { s.emitSyslog(ifc.AdjMessage(s.sched.Now(), true, "new adjacency"), loss) })
	}

	// Adjacency-reset pseudo-failure trailing a real failure.
	afterProb := im.PseudoAfterNonFlap
	if f.InFlap {
		afterProb = im.PseudoAfterFlap
	}
	if s.rng.bernoulli(afterProb) {
		at := f.End.Add(first + skew + 2*time.Second + s.rng.uniformDur(0, 5*time.Second))
		s.sched.At(at, func() { s.pseudoFailure(f.Link, "adjacency reset", f.InFlap) })
	}
}

// pseudoFailure emits a syslog-only Down/Up blip with no LSP: an
// aborted handshake or adjacency reset.
func (s *simulation) pseudoFailure(link topo.LinkID, reason string, inFlap bool) {
	ends := s.ends[link]
	ifc := ends[0]
	if s.rng.bernoulli(0.5) {
		ifc = ends[1]
	}
	// Resets are local control-plane events, not burst load: their
	// messages are rarely lost. (An orphaned half of this pair shows
	// up as an unexplained repeated transition.)
	loss := s.lossProb(inFlap) * 0.3
	now := s.sched.Now()
	s.emitSyslog(ifc.AdjMessage(now, false, reason), loss)
	upAt := now.Add(time.Duration(1+s.rng.Intn(999)) * time.Millisecond)
	s.emitSyslog(ifc.AdjMessage(upAt, true, "new adjacency"), loss)
}

// schedulePseudoFailures spreads background reset blips over every
// link (failure-correlated resets are scheduled from recoverLink).
func (s *simulation) schedulePseudoFailures() {
	im := s.cfg.Impair
	for _, link := range s.net.Links {
		rate := im.PseudoBackgroundPerYear
		if rate <= 0 {
			continue
		}
		meanGap := time.Duration(float64(365.25*24*time.Hour) / rate)
		id := link.ID
		lr := s.rng.fork(s.forked)
		t := s.cfg.Start.Add(lr.expDur(meanGap))
		for t.Before(s.cfg.End) {
			at := t
			reason := "three-way handshake aborted"
			if lr.bernoulli(0.4) {
				reason = "adjacency reset"
			}
			rsn := reason
			s.sched.At(at, func() { s.pseudoFailure(id, rsn, false) })
			t = t.Add(lr.expDur(meanGap))
		}
	}
}

// blip plays a carrier bounce shorter than the hold time: physical
// messages and prefix withdrawal, no adjacency change.
func (s *simulation) blip(link topo.LinkID, dur time.Duration) {
	im := s.cfg.Impair
	start := s.sched.Now()
	ipDelay := 2*time.Second + s.rng.uniformDur(0, 13*time.Second)
	for _, ifc := range s.ends[link] {
		at := start.Add(s.rng.uniformDur(0, 300*time.Millisecond))
		s.sched.At(at, func() { s.emitLinkMessages(ifc, false, im.LossBase) })
		if ipDelay < dur {
			s.sched.At(start.Add(ipDelay+s.rng.uniformDur(0, time.Second)), func() {
				if ifc.SetPhysical(false) {
					s.deliverLSP(ifc.Router, true)
				}
			})
		}
		end := start.Add(dur)
		s.sched.At(end.Add(s.rng.uniformDur(0, 300*time.Millisecond)), func() { s.emitLinkMessages(ifc, true, im.LossBase) })
		s.sched.At(end.Add(s.rng.uniformDur(0, im.IPRestoreMax)), func() {
			if ifc.SetPhysical(true) {
				s.deliverLSP(ifc.Router, true)
			}
		})
	}
}

// scheduleBlips spreads carrier bounces over every link.
func (s *simulation) scheduleBlips() {
	im := s.cfg.Impair
	if im.BlipPerLinkYear <= 0 {
		return
	}
	meanGap := time.Duration(float64(365.25*24*time.Hour) / im.BlipPerLinkYear)
	for _, link := range s.net.Links {
		id := link.ID
		lr := s.rng.fork(s.forked)
		t := s.cfg.Start.Add(lr.expDur(meanGap))
		for t.Before(s.cfg.End) {
			dur := im.BlipDurMin + lr.uniformDur(0, im.BlipDurMax-im.BlipDurMin)
			at := t
			s.sched.At(at, func() { s.blip(id, dur) })
			t = t.Add(dur + lr.expDur(meanGap))
		}
	}
}

// scheduleNoise emits unrelated syslog messages (config changes,
// login notices) that the analysis must filter out, as the paper's
// collector did.
func (s *simulation) scheduleNoise() {
	im := s.cfg.Impair
	if im.NoisePerRouterDay <= 0 {
		return
	}
	meanGap := time.Duration(float64(24*time.Hour) / im.NoisePerRouterDay)
	for _, name := range s.net.RouterNames {
		host := name
		lr := s.rng.fork(s.forked)
		seq := uint64(1 << 20) // clear of the device's own counters
		t := s.cfg.Start.Add(lr.expDur(meanGap))
		for t.Before(s.cfg.End) {
			at := t
			seq++
			msgSeq := seq
			s.sched.At(at, func() {
				m := syslog.Message{
					Facility:  syslog.Local7,
					Severity:  syslog.Informational,
					Timestamp: s.sched.Now().Truncate(time.Millisecond),
					Hostname:  host,
					Seq:       msgSeq,
					Mnemonic:  "SYS-5-CONFIG_I",
					Text:      "Configured from console by admin",
				}
				s.emitSyslog(m, s.cfg.Impair.LossBase)
			})
			t = t.Add(lr.expDur(meanGap))
		}
	}
}

// scheduleSync delivers every device's current LSP to the listener,
// modeling the CSNP-driven database synchronization that happens when
// the listener (re)joins the network.
func (s *simulation) scheduleSync(at time.Time) {
	s.sched.At(at, func() {
		for _, d := range s.devices {
			s.deliverLSP(d, true)
		}
	})
}

// scheduleRefreshes arranges periodic LSP refreshes for every device.
func (s *simulation) scheduleRefreshes() {
	for _, d := range s.devices {
		var tick func()
		tick = func() {
			s.deliverLSP(d, false)
			s.sched.After(s.cfg.RefreshInterval+s.rng.uniformDur(0, s.cfg.RefreshInterval/10), tick)
		}
		s.sched.After(s.rng.uniformDur(0, s.cfg.RefreshInterval), tick)
	}
}

// analyticRefreshCount computes the refresh volume RefreshCounted
// mode does not materialize: one refresh per device per interval.
func (s *simulation) analyticRefreshCount() int {
	intervals := float64(s.cfg.End.Sub(s.cfg.Start)) / float64(s.cfg.RefreshInterval)
	return int(intervals * float64(len(s.net.RouterNames)))
}
