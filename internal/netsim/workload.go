package netsim

import (
	"sort"
	"time"

	"netfail/internal/topo"
)

// FailureCause classifies what took the link down, which controls
// which observation channels see the event.
type FailureCause int

const (
	// CauseProtocol is an IS-IS-level failure (hold-time expiry,
	// congestion, unidirectional loss): no physical media change, so
	// no %LINK syslog and no IP-reachability withdrawal.
	CauseProtocol FailureCause = iota
	// CausePhysical is a media failure (fiber cut, optics, power):
	// interface down, %LINK/%LINEPROTO syslog, and IP-reachability
	// withdrawal alongside the adjacency loss.
	CausePhysical
)

// String names the cause.
func (c FailureCause) String() string {
	if c == CausePhysical {
		return "physical"
	}
	return "protocol"
}

// GroundTruthFailure is one true outage interval: what actually
// happened, before either observation channel distorts it.
type GroundTruthFailure struct {
	Link   topo.LinkID
	Class  topo.LinkClass
	Start  time.Time
	End    time.Time
	Cause  FailureCause
	InFlap bool
}

// Duration returns the outage length.
func (f GroundTruthFailure) Duration() time.Duration { return f.End.Sub(f.Start) }

// ClassParams parameterizes the failure workload for one link class.
// Defaults are calibrated so the reconstructed statistics land in the
// bands of Table 5.
type ClassParams struct {
	// RateMedian and RateSigma describe the per-link annualized
	// failure count: each link draws its rate from a lognormal, which
	// produces the paper's heavy skew between median and mean links.
	// RateCap clamps pathological draws.
	RateMedian float64
	RateSigma  float64
	RateCap    float64

	// Duration mixture for non-flap failures.
	ShortWeight      float64 // probability of a 1 s – ShortMax failure
	ShortMax         time.Duration
	MediumMedian     time.Duration // lognormal body
	MediumSigma      float64
	LongWeight       float64 // probability of a LongMin–LongMax failure
	LongMin, LongMax time.Duration

	// Flapping: an arrival becomes a flap episode with FlapProb,
	// adding a geometric number of extra short failures separated by
	// sub-10-minute gaps.
	FlapProb      float64
	FlapMeanExtra float64
	FlapGapMax    time.Duration
	FlapDurMax    time.Duration

	// PhysicalFraction is the probability a failure is media-caused.
	PhysicalFraction float64
}

// WorkloadParams carries per-class parameters.
type WorkloadParams struct {
	Core ClassParams
	CPE  ClassParams
	// StableRateFactor and StableFlapFactor damp the failure rate
	// and flap probability of critical sole-uplink links (small
	// stable tail sites; see topo.Network.CriticalUplinks).
	StableRateFactor float64
	StableFlapFactor float64
	// MaintenancePerRouterYear, when positive, schedules router-wide
	// maintenance events: every link of the router fails
	// simultaneously for a MaintenanceMin-MaintenanceMax window.
	// These shared-risk events are what make multi-homed customers
	// isolable. Off by default (the calibrated per-link workload
	// already matches Table 5).
	MaintenancePerRouterYear float64
	MaintenanceMin           time.Duration
	MaintenanceMax           time.Duration
}

// DefaultWorkload returns parameters calibrated against Table 5.
func DefaultWorkload() WorkloadParams {
	return WorkloadParams{
		StableRateFactor: 0.35,
		StableFlapFactor: 0.15,
		Core: ClassParams{
			RateMedian: 6.6, RateSigma: 1.3, RateCap: 250,
			ShortWeight: 0.30, ShortMax: 20 * time.Second,
			MediumMedian: 90 * time.Second, MediumSigma: 1.9,
			LongWeight: 0.08, LongMin: 30 * time.Minute, LongMax: 16 * time.Hour,
			FlapProb: 0.12, FlapMeanExtra: 4,
			FlapGapMax: 8 * time.Minute, FlapDurMax: 60 * time.Second,
			PhysicalFraction: 0.33,
		},
		CPE: ClassParams{
			RateMedian: 15.0, RateSigma: 1.6, RateCap: 900,
			ShortWeight: 0.45, ShortMax: 15 * time.Second,
			MediumMedian: 45 * time.Second, MediumSigma: 1.5,
			LongWeight: 0.06, LongMin: 20 * time.Minute, LongMax: 20 * time.Hour,
			FlapProb: 0.16, FlapMeanExtra: 5,
			FlapGapMax: 6 * time.Minute, FlapDurMax: 25 * time.Second,
			PhysicalFraction: 0.36,
		},
	}
}

// GenerateWorkload produces the campaign's ground-truth failure list
// over [start, end), sorted by start time. The rng must be dedicated
// to this call for determinism.
func GenerateWorkload(r *rng, net *topo.Network, params WorkloadParams, start, end time.Time) []GroundTruthFailure {
	var all []GroundTruthFailure
	span := end.Sub(start)
	years := span.Hours() / (365.25 * 24)
	critical := net.CriticalUplinks()

	// Router-wide maintenance first: its windows block the per-link
	// streams so the per-link no-overlap invariant holds.
	blocked := make(map[topo.LinkID][]GroundTruthFailure)
	if params.MaintenancePerRouterYear > 0 {
		maintRNG := r.fork(newRNG(0))
		meanGap := time.Duration(float64(365.25*24*time.Hour) / params.MaintenancePerRouterYear)
		lo, hi := params.MaintenanceMin, params.MaintenanceMax
		if lo <= 0 {
			lo = 30 * time.Minute
		}
		if hi <= lo {
			hi = lo + 3*time.Hour
		}
		for _, name := range net.RouterNames {
			router := net.Routers[name]
			t := start.Add(maintRNG.expDur(meanGap))
			for t.Before(end) {
				dur := lo + maintRNG.uniformDur(0, hi-lo)
				for _, ifc := range router.Interfaces {
					link, ok := net.LinkByID(ifc.Link)
					if !ok {
						continue
					}
					f := GroundTruthFailure{
						Link:  link.ID,
						Class: link.Class,
						Start: t,
						End:   t.Add(dur),
						Cause: CausePhysical,
					}
					if f.End.After(end) {
						f.End = end
					}
					if f.End.After(f.Start) && !overlapsAny(f, blocked[link.ID]) {
						blocked[link.ID] = append(blocked[link.ID], f)
						all = append(all, f)
					}
				}
				t = t.Add(dur + maintRNG.expDur(meanGap))
			}
		}
	}

	lr := newRNG(0)
	for _, link := range net.Links {
		p := params.CPE
		if link.Class == topo.CoreLink {
			p = params.Core
		}
		if critical[link.ID] {
			if params.StableRateFactor > 0 {
				p.RateMedian *= params.StableRateFactor
			}
			if params.StableFlapFactor > 0 {
				p.FlapProb *= params.StableFlapFactor
			}
		}
		for _, f := range generateLinkFailures(r.fork(lr), link, p, start, end, years) {
			if !overlapsAny(f, blocked[link.ID]) {
				all = append(all, f)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if !all[i].Start.Equal(all[j].Start) {
			return all[i].Start.Before(all[j].Start)
		}
		return all[i].Link < all[j].Link
	})
	return all
}

func generateLinkFailures(r *rng, link *topo.Link, p ClassParams, start, end time.Time, years float64) []GroundTruthFailure {
	rate := r.lognormal(p.RateMedian, p.RateSigma)
	if rate > p.RateCap {
		rate = p.RateCap
	}
	if rate < 0.2 {
		rate = 0.2
	}
	// rate counts failures; flap episodes bundle several per arrival.
	meanPerArrival := 1 + p.FlapProb*p.FlapMeanExtra
	arrivalsPerYear := rate / meanPerArrival
	meanGap := time.Duration(float64(365.25*24*time.Hour) / arrivalsPerYear)

	var out []GroundTruthFailure
	t := start.Add(r.expDur(meanGap))
	for t.Before(end) {
		flap := r.bernoulli(p.FlapProb)
		count := 1
		if flap {
			count += 1 + drawGeometric(r, p.FlapMeanExtra)
		}
		cur := t
		for i := 0; i < count && cur.Before(end); i++ {
			var dur time.Duration
			if flap {
				dur = time.Second + r.uniformDur(0, p.FlapDurMax)
			} else {
				dur = drawDuration(r, p)
			}
			f := GroundTruthFailure{
				Link:   link.ID,
				Class:  link.Class,
				Start:  cur,
				End:    cur.Add(dur),
				InFlap: flap,
			}
			if f.End.After(end) {
				f.End = end
			}
			if r.bernoulli(p.PhysicalFraction) {
				f.Cause = CausePhysical
			}
			if f.End.After(f.Start) {
				out = append(out, f)
			}
			cur = f.End.Add(10*time.Second + r.uniformDur(0, p.FlapGapMax))
		}
		t = cur.Add(r.expDur(meanGap))
	}
	return out
}

// drawDuration samples the non-flap duration mixture.
func drawDuration(r *rng, p ClassParams) time.Duration {
	u := r.Float64()
	switch {
	case u < p.ShortWeight:
		return time.Second + r.uniformDur(0, p.ShortMax-time.Second)
	case u < p.ShortWeight+p.LongWeight:
		return p.LongMin + r.uniformDur(0, p.LongMax-p.LongMin)
	default:
		d := r.lognormalDur(p.MediumMedian, p.MediumSigma)
		if d < time.Second {
			d = time.Second
		}
		if d > 24*time.Hour {
			d = 24 * time.Hour
		}
		return d
	}
}

// overlapsAny reports whether f intersects any failure in the list.
func overlapsAny(f GroundTruthFailure, list []GroundTruthFailure) bool {
	for _, b := range list {
		if f.Start.Before(b.End) && b.Start.Before(f.End) {
			return true
		}
	}
	return false
}

// drawGeometric samples a geometric-ish count with the given mean
// (number of extra flap failures beyond the first two).
func drawGeometric(r *rng, mean float64) int {
	if mean <= 0 {
		return 0
	}
	p := 1 / (1 + mean)
	n := 0
	for !r.bernoulli(p) && n < 60 {
		n++
	}
	return n
}
