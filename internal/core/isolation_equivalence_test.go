package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"netfail/internal/topo"
	"netfail/internal/trace"
)

// randomIsolationNetwork draws a small network that splits easily:
// a few cores (sometimes an even split, so the backbone is a tie, and
// sometimes none), sparse and parallel links, customers that are
// multi-homed or name routers the network lacks.
func randomIsolationNetwork(t testing.TB, rng *rand.Rand) *topo.Network {
	t.Helper()
	n := topo.NewNetwork()
	nodes := 3 + rng.Intn(10)
	cores := rng.Intn(nodes)
	if rng.Intn(4) == 0 {
		cores &^= 1
	}
	for i := 0; i < nodes; i++ {
		class, name := topo.CPE, fmt.Sprintf("cpe-%02d", i)
		if i < cores {
			class, name = topo.Core, fmt.Sprintf("core-%02d", i)
		}
		if err := n.AddRouter(&topo.Router{Name: name, Class: class, SystemID: topo.SystemIDFromIndex(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	rng.Shuffle(nodes, func(i, j int) {
		n.RouterNames[i], n.RouterNames[j] = n.RouterNames[j], n.RouterNames[i]
	})
	for i, links := 0, nodes+rng.Intn(nodes); i < links; i++ {
		a, b := n.RouterNames[rng.Intn(nodes)], n.RouterNames[rng.Intn(nodes)]
		if len(n.Links) > 0 && rng.Intn(6) == 0 {
			prev := n.Links[rng.Intn(len(n.Links))]
			a, b = prev.A.Host, prev.B.Host
		}
		if a == b {
			continue
		}
		port := fmt.Sprintf("p%d", i)
		if _, err := n.AddLink(topo.Endpoint{Host: a, Port: port + "a"}, topo.Endpoint{Host: b, Port: port + "b"}, uint32(2*i), 10); err != nil {
			t.Fatal(err)
		}
	}
	for c := 1 + rng.Intn(5); c > 0; c-- {
		site := &topo.Customer{Name: fmt.Sprintf("site-%d", c)}
		for r := 1 + rng.Intn(3); r > 0; r-- {
			host := n.RouterNames[rng.Intn(nodes)]
			if rng.Intn(6) == 0 {
				host = "ghost"
			}
			site.Routers = append(site.Routers, host)
		}
		n.Customers = append(n.Customers, site)
	}
	return n
}

// randomFailures draws a trace on a coarse clock, so boundaries
// coincide: overlapping, back-to-back and zero-length failures on one
// link, links the network lacks, a link flapping so that one down set
// comes back again and again, and — when pastEnd — failures that start
// or finish after end.
func randomFailures(rng *rand.Rand, n *topo.Network, end time.Time, pastEnd bool) []trace.Failure {
	ids := []topo.LinkID{"stranger:a|stranger:b"}
	for _, l := range n.Links {
		ids = append(ids, l.ID, l.ID)
	}
	span := int(end.Sub(at(0)) / time.Second)
	if pastEnd {
		span += span / 4
	}
	count := rng.Intn(40)
	if rng.Intn(8) == 0 {
		// Dense enough that a customer collects dozens of events.
		count += 200
	}
	fs := make([]trace.Failure, count)
	for i := range fs {
		start := rng.Intn(span)
		length := rng.Intn(span / 4)
		if count > 40 {
			length = rng.Intn(12)
		}
		switch rng.Intn(6) {
		case 0:
			length = 0
		case 1:
			length = 1 + rng.Intn(3)
		}
		if !pastEnd && start+length > span {
			length = span - start
		}
		fs[i] = trace.Failure{Link: ids[rng.Intn(len(ids))], Start: at(start), End: at(start + length)}
		if i > 0 && rng.Intn(5) == 0 {
			// Same link as an earlier failure, starting where it ended
			// or inside it.
			prev := fs[rng.Intn(i)]
			fs[i].Link = prev.Link
			if rng.Intn(2) == 0 {
				fs[i].Start, fs[i].End = prev.End, prev.End.Add(time.Duration(length)*time.Second)
			}
			if !pastEnd && fs[i].End.After(end) {
				fs[i].End = end
			}
		}
	}
	if rng.Intn(2) == 0 {
		// A flap: short failures on one link, a few seconds apart.
		link, t := ids[rng.Intn(len(ids))], rng.Intn(span/2)
		for k := 3 + rng.Intn(8); k > 0 && t+3 <= span; k-- {
			length := 1 + rng.Intn(3)
			fs = append(fs, trace.Failure{Link: link, Start: at(t), End: at(t + length)})
			t += length + 1 + rng.Intn(4)
		}
	}
	return fs
}

func isolationCases() int {
	if testing.Short() {
		return 200
	}
	return 2000
}

// TestIsolationEventsMatchReference holds the integer sweep, skip
// rules and all, to the map-keyed one that asked the graph afresh at
// every boundary — same customers, intervals and link snapshots — and
// checks what must hold of any answer: per customer, events in order,
// disjoint, and inside [first boundary, end].
func TestIsolationEventsMatchReference(t *testing.T) {
	total, strangers, openAtEnd := 0, 0, 0
	for seed := 0; seed < isolationCases(); seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := randomIsolationNetwork(t, rng)
		g := topo.NewGraph(n)
		end := at(200 + rng.Intn(400))
		pastEnd := seed%4 == 0
		fs := randomFailures(rng, n, end, pastEnd)

		got := IsolationEvents(g, n.Customers, fs, end)
		want := refIsolationEvents(g, n.Customers, fs, end)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: %d events, reference %d\n got  %v\n want %v\n failures %v", seed, len(got), len(want), got, want, fs)
		}
		total += len(got)

		var first time.Time
		for i, f := range fs {
			if i == 0 || f.Start.Before(first) {
				first = f.Start
			}
		}
		last := map[string]trace.Interval{}
		for _, e := range got {
			for _, l := range e.Links {
				if _, ok := n.LinkByID(l); !ok {
					strangers++
				}
			}
			if e.Interval.End.Equal(end) {
				openAtEnd++
			}
			if pastEnd {
				continue
			}
			if !e.Interval.Start.Before(e.Interval.End) || e.Interval.Start.Before(first) || e.Interval.End.After(end) {
				t.Fatalf("seed %d: event %v outside [%v, %v] or empty", seed, e, first, end)
			}
			if prev, ok := last[e.Customer]; ok && e.Interval.Start.Before(prev.End) {
				t.Fatalf("seed %d: %s events %v and %v overlap or are out of order", seed, e.Customer, prev, e.Interval)
			}
			last[e.Customer] = e.Interval
		}
	}
	if total == 0 || strangers == 0 || openAtEnd == 0 {
		t.Errorf("generator too tame: %d events, %d stranger links in snapshots, %d open at end", total, strangers, openAtEnd)
	}
}

// TestTable7MatchesReference compares the whole table, and the
// anecdotes drawn from the same matching, on a syslog trace that is
// the IS-IS one with failures dropped, shifted and added, and checks
// that matched and unmatched events add up.
func TestTable7MatchesReference(t *testing.T) {
	var sum Table7
	for seed := 0; seed < isolationCases(); seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := randomIsolationNetwork(t, rng)
		end := at(200 + rng.Intn(400))
		isis := randomFailures(rng, n, end, seed%4 == 0)
		var sys []trace.Failure
		for _, f := range isis {
			switch rng.Intn(5) {
			case 0:
				continue
			case 1:
				shift := time.Duration(rng.Intn(20)-10) * time.Second
				f.Start, f.End = f.Start.Add(shift), f.End.Add(shift)
			case 2:
				f.End = f.End.Add(time.Duration(rng.Intn(30)) * time.Second)
			}
			sys = append(sys, f)
		}
		if extra := randomFailures(rng, n, end, false); len(extra) > 3 {
			sys = append(sys, extra[:rng.Intn(4)]...)
		}
		customers := n.Customers
		net := *n
		net.Customers = nil
		a := &Analysis{In: Input{Network: &net, Customers: customers, End: end}, ISISFailures: isis, SyslogFailures: sys}

		got, want := a.Table7(), refTable7(a)
		if got != want {
			t.Fatalf("seed %d: Table7 = %+v\nreference %+v", seed, got, want)
		}
		if worst, want := a.EgregiousIsolations(3+seed%5), refEgregiousIsolations(a, 3+seed%5); !reflect.DeepEqual(worst, want) {
			t.Fatalf("seed %d: EgregiousIsolations = %v\nreference %v", seed, worst, want)
		}
		if got.IntersectionEvents+got.SyslogOnlyEvents != got.SyslogEvents ||
			got.IntersectionEvents+got.ISISOnlyEvents != got.ISISEvents ||
			got.SyslogOnlyNoISISFailure+got.SyslogOnlyIntersecting != got.SyslogOnlyEvents ||
			got.ISISOnlyPartialMatch+got.ISISOnlySyslogSawFailures+got.ISISOnlyUnrelated != got.ISISOnlyEvents {
			t.Fatalf("seed %d: Table7 does not add up: %+v", seed, got)
		}
		sum.IntersectionEvents += got.IntersectionEvents
		sum.SyslogOnlyIntersecting += got.SyslogOnlyIntersecting
		sum.SyslogOnlyNoISISFailure += got.SyslogOnlyNoISISFailure
		sum.ISISOnlyPartialMatch += got.ISISOnlyPartialMatch
		sum.ISISOnlySyslogSawFailures += got.ISISOnlySyslogSawFailures
		sum.ISISOnlyUnrelated += got.ISISOnlyUnrelated
	}
	if sum.IntersectionEvents == 0 || sum.SyslogOnlyIntersecting == 0 || sum.SyslogOnlyNoISISFailure == 0 ||
		sum.ISISOnlyPartialMatch == 0 || sum.ISISOnlySyslogSawFailures == 0 || sum.ISISOnlyUnrelated == 0 {
		t.Errorf("generator too tame, a Table 7 class never occurred: %+v", sum)
	}
}

// TestIsolationBoundaryAllocBudget: a boundary that moves a link but
// nobody's isolation — labelling included — allocates nothing.
func TestIsolationBoundaryAllocBudget(t *testing.T) {
	n, links := isoNet(t)
	g := topo.NewGraph(n)
	s := newIsolationSweep(g, g.NewIsolationMemo())
	ab, u2a := s.sw.Link(links["ab"]), s.sw.Link(links["u2a"])
	allocs := testing.AllocsPerRun(100, func() {
		for _, step := range []struct{ link, delta int }{{ab, 1}, {u2a, 1}, {ab, -1}, {u2a, -1}} {
			s.sw.Add(step.link, step.delta)
			s.visit(at(0))
		}
	})
	if allocs != 0 || len(s.events) != 0 {
		t.Errorf("a steady-state boundary allocates %.1f times and left %d events, want 0 and 0", allocs, len(s.events))
	}
}
