package core

import (
	"math/bits"
	"sort"
	"time"

	"netfail/internal/match"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// IsolationEvent is one maximal interval during which a customer site
// had no path to the backbone (§4.4).
type IsolationEvent struct {
	Customer string
	Interval trace.Interval
	// Links lists the links that were down when the isolation began.
	Links []topo.LinkID
}

// Duration returns the event length.
func (e IsolationEvent) Duration() time.Duration { return e.Interval.Duration() }

// IsolationEvents sweeps a failure trace over the topology and
// returns every customer-isolation interval, for the customers the
// graph's network carried at NewGraph. An event still open when the
// failures run out closes at end.
func IsolationEvents(g *topo.Graph, customers []*topo.Customer, failures []trace.Failure, end time.Time) []IsolationEvent {
	return isolationEvents(g, g.NewIsolationMemo(), customers, failures, end)
}

// isolationEvents is IsolationEvents answering from memo, which
// sweeps over g may share.
func isolationEvents(g *topo.Graph, memo *topo.IsolationMemo, customers []*topo.Customer, failures []trace.Failure, end time.Time) []IsolationEvent {
	if len(customers) == 0 || len(failures) == 0 {
		return nil
	}
	s := newIsolationSweep(g, memo)
	trace.SweepFailures(s.sw, failures, s.visit)
	s.apply(s.none, end)
	events := s.events
	sort.Slice(events, func(i, j int) bool {
		if !events[i].Interval.Start.Equal(events[j].Interval.Start) {
			return events[i].Interval.Start.Before(events[j].Interval.Start)
		}
		return events[i].Customer < events[j].Customer
	})
	return events
}

// isolationSweep is IsolationEvents' state between failure
// boundaries, by customer position in Graph.Customers.
type isolationSweep struct {
	sw   *topo.Sweep
	memo *topo.IsolationMemo
	// isolated is the bitset of customers with an open event, none
	// the empty one.
	isolated, none []uint64
	sites          []*topo.Customer
	since          []time.Time
	// links[c] lists the links down when customer c's open event began.
	links  [][]topo.LinkID
	events []IsolationEvent
}

func newIsolationSweep(g *topo.Graph, memo *topo.IsolationMemo) *isolationSweep {
	n := len(g.Customers())
	return &isolationSweep{
		sw:       g.NewSweep(),
		memo:     memo,
		isolated: make([]uint64, (n+63)/64),
		none:     make([]uint64, (n+63)/64),
		sites:    g.Customers(),
		since:    make([]time.Time, n),
		links:    make([][]topo.LinkID, n),
	}
}

// visit accounts for the boundary at t, the sweep already moved past
// it. With no link down nobody is isolated, whatever the graph looks
// like; otherwise the sweep says who is.
func (s *isolationSweep) visit(t time.Time) {
	now := s.none
	if s.sw.DownCount() > 0 {
		now = s.sw.IsolatedSet(s.memo)
	}
	s.apply(now, t)
}

// apply opens and closes events at t until the open ones are now's.
func (s *isolationSweep) apply(now []uint64, t time.Time) {
	var snapshot []topo.LinkID
	for w, was := range s.isolated {
		for diff := was ^ now[w]; diff != 0; diff &= diff - 1 {
			c := w*64 + bits.TrailingZeros64(diff)
			if was&(1<<(c%64)) != 0 {
				s.events = append(s.events, IsolationEvent{
					Customer: s.sites[c].Name,
					Interval: trace.Interval{Start: s.since[c], End: t},
					Links:    s.links[c],
				})
				s.links[c] = nil
				continue
			}
			if snapshot == nil {
				snapshot = s.sw.DownLinks()
			}
			s.since[c], s.links[c] = t, snapshot
		}
		s.isolated[w] = now[w]
	}
}

// Table7 is the customer-isolation comparison (paper Table 7 and the
// unmatched-event breakdown of §4.4).
type Table7 struct {
	ISISEvents, SyslogEvents     int
	ISISSites, SyslogSites       int
	ISISDowntime, SyslogDowntime time.Duration
	IntersectionEvents           int
	IntersectionSites            int
	IntersectionDowntime         time.Duration
	// Syslog-only events: split by whether IS-IS saw any failure on
	// the affected links during the event.
	SyslogOnlyEvents        int
	SyslogOnlyNoISISFailure int
	SyslogOnlyIntersecting  int
	// IS-IS-only events: the §4.4 breakdown.
	ISISOnlyEvents            int
	ISISOnlyPartialMatch      int
	ISISOnlySyslogSawFailures int
	ISISOnlyUnrelated         int
	ISISOnlyDowntime          time.Duration
}

// isolationEvents runs the isolation sweep over both failure traces,
// one memo answering for both.
func (a *Analysis) isolationEvents() (isis, syslog []IsolationEvent) {
	// The isolation graph needs the customer list attached.
	netWithCustomers := *a.In.Network
	netWithCustomers.Customers = a.In.Customers
	g := topo.NewGraph(&netWithCustomers)
	memo := g.NewIsolationMemo()
	return isolationEvents(g, memo, a.In.Customers, a.ISISFailures, a.In.End),
		isolationEvents(g, memo, a.In.Customers, a.SyslogFailures, a.In.End)
}

// Table7 runs the isolation analysis over both sources.
func (a *Analysis) Table7() Table7 {
	return a.table7(match.GroupByLink(a.ISISFailures), match.GroupByLink(a.SyslogFailures))
}

func (a *Analysis) table7(isisByLink, syslogByLink byLink) Table7 {
	var t7 Table7
	if len(a.In.Customers) == 0 {
		return t7
	}
	isisEvents, syslogEvents := a.isolationEvents()

	t7.ISISEvents = len(isisEvents)
	t7.SyslogEvents = len(syslogEvents)
	t7.ISISSites = distinctCustomers(isisEvents)
	t7.SyslogSites = distinctCustomers(syslogEvents)
	t7.ISISDowntime = totalIsolation(isisEvents)
	t7.SyslogDowntime = totalIsolation(syslogEvents)

	// Match events: same customer, overlapping intervals, one-to-one.
	paired, matchedS, sites := matchIsolationEvents(isisEvents, syslogEvents)
	interCustomers := make(map[string]bool)
	for i, j := range paired {
		if j < 0 {
			continue
		}
		t7.IntersectionEvents++
		t7.IntersectionDowntime += overlap(isisEvents[i].Interval, syslogEvents[j].Interval)
		interCustomers[isisEvents[i].Customer] = true
	}
	t7.IntersectionSites = len(interCustomers)

	// Classify unmatched events.
	for j, se := range syslogEvents {
		if matchedS[j] {
			continue
		}
		t7.SyslogOnlyEvents++
		if anyFailureDuring(isisByLink, se) {
			t7.SyslogOnlyIntersecting++
		} else {
			t7.SyslogOnlyNoISISFailure++
		}
	}
	for _, site := range sites {
		site.next = 0
	}
	for i, ie := range isisEvents {
		if paired[i] >= 0 {
			continue
		}
		t7.ISISOnlyEvents++
		t7.ISISOnlyDowntime += ie.Duration()
		switch {
		case firstOverlap(syslogEvents, sites[ie.Customer].candidates(syslogEvents, ie.Interval), nil, ie.Interval) >= 0:
			t7.ISISOnlyPartialMatch++
		case anyFailureDuring(syslogByLink, ie):
			t7.ISISOnlySyslogSawFailures++
		default:
			t7.ISISOnlyUnrelated++
		}
	}
	return t7
}

func distinctCustomers(events []IsolationEvent) int {
	set := make(map[string]bool)
	for _, e := range events {
		set[e.Customer] = true
	}
	return len(set)
}

func totalIsolation(events []IsolationEvent) time.Duration {
	var total time.Duration
	for _, e := range events {
		total += e.Duration()
	}
	return total
}

// anyFailureDuring reports whether the other source saw any failure
// on the event's affected links during the event's interval.
func anyFailureDuring(byLink map[topo.LinkID][]trace.Failure, e IsolationEvent) bool {
	probe := trace.Failure{Start: e.Interval.Start, End: e.Interval.End}
	for _, link := range e.Links {
		probe.Link = link
		if match.Intersects(probe, byLink) {
			return true
		}
	}
	return false
}

// siteEvents lists one customer's events by position, in start order
// as IsolationEvents returns them, with a cursor for probes that come
// in start order too.
type siteEvents struct {
	events []int
	next   int
}

// candidates returns the stretch of the customer's events that can
// overlap a probe interval. It passes for good the leading events
// over by the probe's start — no later probe reaches back to them —
// and stops at the first to begin at or after the probe's end, so a
// pass over all probes is linear where scanning the customer's whole
// list for each was quadratic.
func (s *siteEvents) candidates(all []IsolationEvent, probe trace.Interval) []int {
	if s == nil {
		return nil
	}
	for s.next < len(s.events) && !all[s.events[s.next]].Interval.End.After(probe.Start) {
		s.next++
	}
	end := s.next
	for end < len(s.events) && all[s.events[end]].Interval.Start.Before(probe.End) {
		end++
	}
	return s.events[s.next:end]
}

// firstOverlap returns the first of the candidate events, not counting
// those taken, that shares time with the probe interval, or -1.
func firstOverlap(all []IsolationEvent, candidates []int, taken []bool, probe trace.Interval) int {
	for _, j := range candidates {
		if (taken == nil || !taken[j]) && overlap(all[j].Interval, probe) > 0 {
			return j
		}
	}
	return -1
}

// matchIsolationEvents pairs the two sources' events one to one: each
// IS-IS event, in order, takes its customer's first syslog event not
// yet taken that overlaps it. paired[i] is the syslog event paired
// with IS-IS event i, or -1; taken marks the paired syslog events. The
// cursors in sites are spent: reset next before another pass.
func matchIsolationEvents(isis, syslog []IsolationEvent) (paired []int, taken []bool, sites map[string]*siteEvents) {
	sites = make(map[string]*siteEvents)
	for j := range syslog {
		customer := syslog[j].Customer
		site := sites[customer]
		if site == nil {
			site = &siteEvents{}
			sites[customer] = site
		}
		site.events = append(site.events, j)
	}
	paired = make([]int, len(isis))
	taken = make([]bool, len(syslog))
	for i := range isis {
		ie := &isis[i]
		j := firstOverlap(syslog, sites[ie.Customer].candidates(syslog, ie.Interval), taken, ie.Interval)
		if paired[i] = j; j >= 0 {
			taken[j] = true
		}
	}
	return paired, taken, sites
}

// overlap returns the time two intervals share; zero or less when
// they share none.
func overlap(a, b trace.Interval) time.Duration {
	return minTime(a.End, b.End).Sub(maxTime(a.Start, b.Start))
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
