// Package probe models the active-measurement methodology the
// authors' earlier study used as a validation source (§1): a vantage
// point pings every router at a fixed interval, and a run of
// consecutive losses is declared an outage. The paper's motivation
// for the IS-IS comparison is precisely that this source provides
// "only sparse coverage of the failures" — probes cannot see outages
// shorter than the probing interval, cannot attribute an outage to a
// link, and only notice failures that actually cut the probe path.
//
// The prober replays a failure trace over the topology graph and
// produces per-router outage intervals, plus the coverage accounting
// that quantifies the sparseness.
package probe

import (
	"sort"
	"time"

	"netfail/internal/topo"
	"netfail/internal/trace"
)

// Params configures the prober.
type Params struct {
	// Vantage is the hostname the probes originate from.
	Vantage string
	// Interval is the probing period (operationally: minutes).
	Interval time.Duration
	// LossThreshold is the number of consecutive missing replies
	// before an outage is declared.
	LossThreshold int
	// ReplyLoss is the probability a probe is lost even though the
	// path is up (background packet loss).
	ReplyLoss float64
	// Seed drives the background loss.
	Seed int64
}

// DefaultParams probes every five minutes and declares an outage
// after two consecutive losses, a common operational configuration.
func DefaultParams(vantage string) Params {
	return Params{
		Vantage:       vantage,
		Interval:      5 * time.Minute,
		LossThreshold: 2,
		ReplyLoss:     0.001,
		Seed:          1,
	}
}

// Outage is one probing-detected outage of a target router.
type Outage struct {
	Router   string
	Interval trace.Interval
}

// Result is the prober's output.
type Result struct {
	// Outages are the detected per-router outages, ordered by start.
	Outages []Outage
	// ProbesSent counts the probes issued.
	ProbesSent int
}

// reachabilityTimeline answers "was router R reachable from the
// vantage at time t" by sweeping failure boundaries once.
type reachabilityTimeline struct {
	// cuts[router] holds the intervals during which the router was
	// unreachable.
	cuts map[string][]trace.Interval
}

// buildTimeline sweeps the failure trace over the graph: one
// component labelling per boundary that moved the labels, every router
// compared with the vantage's.
func buildTimeline(g *topo.Graph, routers []string, vantage string, failures []trace.Failure, end time.Time) *reachabilityTimeline {
	tl := &reachabilityTimeline{cuts: make(map[string][]trace.Interval)}
	if len(failures) == 0 {
		return tl
	}
	// A router, or a vantage, the graph does not know is node -1:
	// never reachable.
	node := func(host string) int {
		if v, ok := g.Node(host); ok {
			return v
		}
		return -1
	}
	from := node(vantage)
	nodes := make([]int, len(routers))
	for i, r := range routers {
		nodes[i] = node(r)
	}
	cut := make([]bool, len(routers))
	cutSince := make([]time.Time, len(routers))
	sw := g.NewSweep()
	trace.SweepFailures(sw, failures, func(t time.Time) {
		if !sw.Refresh() {
			return
		}
		for i, r := range routers {
			reachable := from >= 0 && nodes[i] >= 0 && sw.Connected(from, nodes[i])
			switch {
			case !reachable && !cut[i]:
				cut[i], cutSince[i] = true, t
			case reachable && cut[i]:
				cut[i] = false
				tl.cuts[r] = append(tl.cuts[r], trace.Interval{Start: cutSince[i], End: t})
			}
		}
	})
	for i, r := range routers {
		if cut[i] {
			tl.cuts[r] = append(tl.cuts[r], trace.Interval{Start: cutSince[i], End: end})
		}
	}
	return tl
}

// unreachableAt reports whether the router was cut off at t.
func (tl *reachabilityTimeline) unreachableAt(router string, t time.Time) bool {
	cuts := tl.cuts[router]
	i := sort.Search(len(cuts), func(i int) bool { return cuts[i].End.After(t) })
	return i < len(cuts) && cuts[i].Contains(t)
}

// Run replays the failure trace and probes every router (except the
// vantage) over [start, end).
func Run(g *topo.Graph, net *topo.Network, failures []trace.Failure, p Params, start, end time.Time) *Result {
	res := &Result{}
	targets := make([]string, 0, len(net.RouterNames))
	for _, name := range net.RouterNames {
		if name != p.Vantage {
			targets = append(targets, name)
		}
	}
	tl := buildTimeline(g, targets, p.Vantage, failures, end)
	rng := newLCG(p.Seed)

	for _, target := range targets {
		misses := 0
		var downSince time.Time
		declared := false
		for t := start; t.Before(end); t = t.Add(p.Interval) {
			res.ProbesSent++
			lost := tl.unreachableAt(target, t) || rng.float64() < p.ReplyLoss
			if lost {
				if misses == 0 {
					downSince = t
				}
				misses++
				if misses == p.LossThreshold {
					declared = true
				}
				continue
			}
			if declared {
				res.Outages = append(res.Outages, Outage{
					Router:   target,
					Interval: trace.Interval{Start: downSince, End: t},
				})
			}
			misses = 0
			declared = false
		}
		if declared {
			res.Outages = append(res.Outages, Outage{
				Router:   target,
				Interval: trace.Interval{Start: downSince, End: end},
			})
		}
	}
	sort.Slice(res.Outages, func(i, j int) bool {
		if !res.Outages[i].Interval.Start.Equal(res.Outages[j].Interval.Start) {
			return res.Outages[i].Interval.Start.Before(res.Outages[j].Interval.Start)
		}
		return res.Outages[i].Router < res.Outages[j].Router
	})
	return res
}

// Coverage quantifies the sparseness the paper complains about: the
// fraction of reference failures (typically the IS-IS trace) during
// which probing detected any outage at all.
type Coverage struct {
	ReferenceFailures int
	Detected          int
	// DetectedLong counts detections among failures at least one
	// probing interval long — the only ones probing can plausibly
	// see.
	LongFailures int
	DetectedLong int
}

// Fraction returns detected over reference.
func (c Coverage) Fraction() float64 {
	if c.ReferenceFailures == 0 {
		return 0
	}
	return float64(c.Detected) / float64(c.ReferenceFailures)
}

// Assess matches probing outages against a reference failure list: a
// failure counts as detected if any outage overlaps it in time.
func Assess(res *Result, reference []trace.Failure, interval time.Duration) Coverage {
	byStart := make([]trace.Interval, len(res.Outages))
	for i, o := range res.Outages {
		byStart[i] = o.Interval
	}
	var c Coverage
	for _, f := range reference {
		c.ReferenceFailures++
		long := f.Duration() >= interval
		if long {
			c.LongFailures++
		}
		hit := false
		for _, iv := range byStart {
			if iv.Start.After(f.End) {
				break
			}
			if f.Overlaps(iv.Start, iv.End) {
				hit = true
				break
			}
		}
		if hit {
			c.Detected++
			if long {
				c.DetectedLong++
			}
		}
	}
	return c
}

// lcg is a tiny deterministic generator so the package stays
// independent of the simulator's RNG plumbing.
type lcg struct{ state uint64 }

func newLCG(seed int64) *lcg {
	return &lcg{state: uint64(seed)*6364136223846793005 + 1442695040888963407}
}

func (l *lcg) float64() float64 {
	l.state = l.state*6364136223846793005 + 1442695040888963407
	return float64(l.state>>11) / float64(1<<53)
}
