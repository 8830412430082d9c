package core

// The map-keyed boundary sweep and the Table 7 and anecdote matching
// built on it, as they shipped before the integer sweep, kept verbatim (ref-prefixed) as
// the oracle for isolation_equivalence_test.go. Connectivity at each
// boundary comes from Graph.IsolatedCustomers on a fresh down-set map
// — no state carried from one boundary to the next, so none of the
// sweep's skip rules can hide here — and that function is held to the
// string-keyed graph by topo's own equivalence test.

import (
	"sort"
	"time"

	"netfail/internal/match"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

func refIsolationEvents(g *topo.Graph, customers []*topo.Customer, failures []trace.Failure, end time.Time) []IsolationEvent {
	if len(customers) == 0 || len(failures) == 0 {
		return nil
	}
	// Boundary events: failure starts and ends.
	type boundary struct {
		t    time.Time
		link topo.LinkID
		down bool
	}
	bounds := make([]boundary, 0, 2*len(failures))
	for _, f := range failures {
		bounds = append(bounds, boundary{t: f.Start, link: f.Link, down: true})
		bounds = append(bounds, boundary{t: f.End, link: f.Link, down: false})
	}
	sort.Slice(bounds, func(i, j int) bool {
		if !bounds[i].t.Equal(bounds[j].t) {
			return bounds[i].t.Before(bounds[j].t)
		}
		// Ups before downs at the same instant keeps the down-set
		// minimal.
		return !bounds[i].down && bounds[j].down
	})

	downCount := make(map[topo.LinkID]int)
	downSet := make(map[topo.LinkID]bool)
	isolatedSince := make(map[string]time.Time)
	linksAt := make(map[string][]topo.LinkID)
	var events []IsolationEvent

	openLinks := func() []topo.LinkID {
		links := make([]topo.LinkID, 0, len(downSet))
		for l := range downSet {
			links = append(links, l)
		}
		sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
		return links
	}

	for i := 0; i < len(bounds); {
		t := bounds[i].t
		for i < len(bounds) && bounds[i].t.Equal(t) {
			b := bounds[i]
			if b.down {
				downCount[b.link]++
			} else {
				downCount[b.link]--
			}
			if downCount[b.link] > 0 {
				downSet[b.link] = true
			} else {
				delete(downSet, b.link)
			}
			i++
		}
		isolated := g.IsolatedCustomers(downSet)
		cur := make(map[string]bool, len(isolated))
		var snapshot []topo.LinkID
		for _, c := range isolated {
			cur[c] = true
			if _, already := isolatedSince[c]; !already {
				isolatedSince[c] = t
				if snapshot == nil {
					snapshot = openLinks()
				}
				linksAt[c] = snapshot
			}
		}
		for c, since := range isolatedSince {
			if !cur[c] {
				events = append(events, IsolationEvent{
					Customer: c,
					Interval: trace.Interval{Start: since, End: t},
					Links:    linksAt[c],
				})
				delete(isolatedSince, c)
				delete(linksAt, c)
			}
		}
	}
	// Close events still open at the end of the window.
	for c, since := range isolatedSince {
		events = append(events, IsolationEvent{
			Customer: c,
			Interval: trace.Interval{Start: since, End: end},
			Links:    linksAt[c],
		})
	}
	sort.Slice(events, func(i, j int) bool {
		if !events[i].Interval.Start.Equal(events[j].Interval.Start) {
			return events[i].Interval.Start.Before(events[j].Interval.Start)
		}
		return events[i].Customer < events[j].Customer
	})
	return events
}

func refTable7(a *Analysis) Table7 {
	var t7 Table7
	if len(a.In.Customers) == 0 {
		return t7
	}
	// The isolation graph needs the customer list attached.
	netWithCustomers := *a.In.Network
	netWithCustomers.Customers = a.In.Customers
	g := topo.NewGraph(&netWithCustomers)

	isisEvents := refIsolationEvents(g, a.In.Customers, a.ISISFailures, a.In.End)
	syslogEvents := refIsolationEvents(g, a.In.Customers, a.SyslogFailures, a.In.End)

	t7.ISISEvents = len(isisEvents)
	t7.SyslogEvents = len(syslogEvents)
	t7.ISISSites = distinctCustomers(isisEvents)
	t7.SyslogSites = distinctCustomers(syslogEvents)
	t7.ISISDowntime = totalIsolation(isisEvents)
	t7.SyslogDowntime = totalIsolation(syslogEvents)

	// Match events: same customer, overlapping intervals, one-to-one.
	matchedI := make([]bool, len(isisEvents))
	matchedS := make([]bool, len(syslogEvents))
	interCustomers := make(map[string]bool)
	byCustomer := make(map[string][]int)
	for j, e := range syslogEvents {
		byCustomer[e.Customer] = append(byCustomer[e.Customer], j)
	}
	for i, ie := range isisEvents {
		for _, j := range byCustomer[ie.Customer] {
			if matchedS[j] {
				continue
			}
			se := syslogEvents[j]
			lo := maxTime(ie.Interval.Start, se.Interval.Start)
			hi := minTime(ie.Interval.End, se.Interval.End)
			if hi.After(lo) {
				matchedI[i] = true
				matchedS[j] = true
				t7.IntersectionEvents++
				t7.IntersectionDowntime += hi.Sub(lo)
				interCustomers[ie.Customer] = true
				break
			}
		}
	}
	t7.IntersectionSites = len(interCustomers)

	// Classify unmatched events.
	isisByLink := match.GroupByLink(a.ISISFailures)
	syslogByLink := match.GroupByLink(a.SyslogFailures)
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
	for i, ie := range isisEvents {
		if matchedI[i] {
			continue
		}
		t7.ISISOnlyEvents++
		t7.ISISOnlyDowntime += ie.Duration()
		switch {
		case refAnyEventOverlap(syslogEvents, ie):
			t7.ISISOnlyPartialMatch++
		case anyFailureDuring(syslogByLink, ie):
			t7.ISISOnlySyslogSawFailures++
		default:
			t7.ISISOnlyUnrelated++
		}
	}
	return t7
}

func refAnyEventOverlap(events []IsolationEvent, probe IsolationEvent) bool {
	for _, e := range events {
		if e.Customer != probe.Customer {
			continue
		}
		lo := maxTime(e.Interval.Start, probe.Interval.Start)
		hi := minTime(e.Interval.End, probe.Interval.End)
		if hi.After(lo) {
			return true
		}
	}
	return false
}

func refEgregiousIsolations(a *Analysis, limit int) []EgregiousMatch {
	if len(a.In.Customers) == 0 {
		return nil
	}
	netWithCustomers := *a.In.Network
	netWithCustomers.Customers = a.In.Customers
	g := topo.NewGraph(&netWithCustomers)
	isisEvents := refIsolationEvents(g, a.In.Customers, a.ISISFailures, a.In.End)
	syslogEvents := refIsolationEvents(g, a.In.Customers, a.SyslogFailures, a.In.End)

	byCustomer := make(map[string][]IsolationEvent)
	for _, e := range syslogEvents {
		byCustomer[e.Customer] = append(byCustomer[e.Customer], e)
	}
	used := make(map[string]map[int]bool)
	var out []EgregiousMatch
	for _, ie := range isisEvents {
		cands := byCustomer[ie.Customer]
		for j, se := range cands {
			if used[ie.Customer][j] {
				continue
			}
			lo := maxTime(ie.Interval.Start, se.Interval.Start)
			hi := minTime(ie.Interval.End, se.Interval.End)
			if !hi.After(lo) {
				continue
			}
			if used[ie.Customer] == nil {
				used[ie.Customer] = make(map[int]bool)
			}
			used[ie.Customer][j] = true
			di, ds := ie.Duration(), se.Duration()
			longer, shorter := di, ds
			if ds > di {
				longer, shorter = ds, di
			}
			ratio := float64(longer) / float64(max64(shorter, time.Second))
			out = append(out, EgregiousMatch{
				Customer: ie.Customer,
				ISIS:     ie.Interval,
				Syslog:   se.Interval,
				Ratio:    ratio,
				Overlap:  hi.Sub(lo),
			})
			break
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ratio > out[j].Ratio })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}
