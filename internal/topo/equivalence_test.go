package topo

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomNetwork draws a small network built to hit the graph's edge
// cases: sparse enough to split, sometimes without a core router or
// with an even core split (the backbone is then a tie), parallel links
// and self-loops, customers that are multi-homed, name routers the
// network lacks, or name none at all.
func randomNetwork(t testing.TB, rng *rand.Rand) *Network {
	t.Helper()
	n := NewNetwork()
	nodes := 2 + rng.Intn(13)
	cores := rng.Intn(nodes + 1)
	if rng.Intn(4) == 0 {
		cores &^= 1
	}
	for i := 0; i < nodes; i++ {
		class, name := CPE, fmt.Sprintf("cpe-%02d", i)
		if i < cores {
			class, name = Core, fmt.Sprintf("core-%02d", i)
		}
		if err := n.AddRouter(&Router{Name: name, Class: class, SystemID: SystemIDFromIndex(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Shuffle so node 0 is not always a core router.
	rng.Shuffle(len(n.RouterNames), func(i, j int) {
		n.RouterNames[i], n.RouterNames[j] = n.RouterNames[j], n.RouterNames[i]
	})
	links := rng.Intn(2 * nodes)
	for i := 0; i < links; i++ {
		a := n.RouterNames[rng.Intn(nodes)]
		b := n.RouterNames[rng.Intn(nodes)]
		if a == b && rng.Intn(8) != 0 {
			continue
		}
		if len(n.Links) > 0 && rng.Intn(6) == 0 {
			prev := n.Links[rng.Intn(len(n.Links))]
			a, b = prev.A.Host, prev.B.Host
		}
		port := fmt.Sprintf("p%d", i)
		if _, err := n.AddLink(Endpoint{Host: a, Port: port + "a"}, Endpoint{Host: b, Port: port + "b"}, uint32(2*i), 10); err != nil {
			t.Fatal(err)
		}
	}
	for c := rng.Intn(6); c > 0; c-- {
		site := &Customer{Name: fmt.Sprintf("site-%d", c)}
		for r := rng.Intn(4); r > 0; r-- {
			host := n.RouterNames[rng.Intn(nodes)]
			if rng.Intn(5) == 0 {
				host = fmt.Sprintf("ghost-%d", rng.Intn(3))
			}
			site.Routers = append(site.Routers, host)
		}
		n.Customers = append(n.Customers, site)
	}
	return n
}

func equivalenceCases() int {
	if testing.Short() {
		return 150
	}
	return 1500
}

// TestGraphMatchesReference holds the map- and func-taking entry
// points to the string-keyed graph on random networks and down sets.
func TestGraphMatchesReference(t *testing.T) {
	partitions, ties, isolations := 0, 0, 0
	for seed := 0; seed < equivalenceCases(); seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := randomNetwork(t, rng)
		g, ref := NewGraph(n), refNewGraph(n)
		for round := 0; round < 6; round++ {
			down := map[LinkID]bool{}
			for _, l := range n.Links {
				switch rng.Intn(6) {
				case 0, 1:
					down[l.ID] = true
				case 2:
					down[l.ID] = false
				}
			}
			if rng.Intn(4) == 0 {
				down["nobody:x|nowhere:y"] = rng.Intn(2) == 0
			}
			isDown := func(id LinkID) bool { return down[id] }
			if round == 0 {
				isDown = nil
			}
			labels, comps := g.components(isDown)
			wantLabels, wantComps := ref.Components(isDown)
			if comps != wantComps || !reflect.DeepEqual(labels, wantLabels) {
				t.Fatalf("seed %d round %d: Components = %v (%d), reference %v (%d)", seed, round, labels, comps, wantLabels, wantComps)
			}
			if comps > 1 {
				partitions++
			}
			if got, want := g.backboneComponent(labels), ref.BackboneComponent(wantLabels); got != want {
				t.Fatalf("seed %d round %d: BackboneComponent = %d, reference %d", seed, round, got, want)
			}
			if coreTie(ref, wantLabels) {
				ties++
			}
			got, want := g.IsolatedCustomers(down), ref.IsolatedCustomers(down)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d round %d: IsolatedCustomers(%v) = %v, reference %v", seed, round, down, got, want)
			}
			isolations += len(want)
			hosts := append([]string{"ghost-0"}, n.RouterNames...)
			for _, a := range hosts {
				for _, b := range hosts {
					if got, want := g.reachable(a, b, down), ref.Reachable(a, b, down); got != want {
						t.Fatalf("seed %d round %d: Reachable(%s, %s) = %v, reference %v", seed, round, a, b, got, want)
					}
				}
			}
		}
	}
	if partitions == 0 || ties == 0 || isolations == 0 {
		t.Errorf("generator too tame: %d partitions, %d backbone ties, %d isolations", partitions, ties, isolations)
	}
}

// coreTie reports whether two components hold the most core routers.
func coreTie(ref *refGraph, labels []int) bool {
	counts := map[int]int{}
	for _, v := range ref.coreNodes {
		counts[labels[v]]++
	}
	best, second := 0, 0
	for _, c := range counts {
		if c > best {
			best, second = c, best
		} else if c > second {
			second = c
		}
	}
	return best > 0 && best == second
}

// TestSweepMatchesReference moves links one at a time — counts that
// nest, go negative, and belong to links the graph has never heard
// of — and asks only now and then, so that several moves pile up
// behind one labelling. Every answer must be the reference's on the
// down set as it then stands: the skip rules in Add are exact or this
// fails.
func TestSweepMatchesReference(t *testing.T) {
	skipped, relabelled := 0, 0
	for seed := 0; seed < equivalenceCases(); seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := randomNetwork(t, rng)
		g, ref := NewGraph(n), refNewGraph(n)
		ids := []LinkID{"stranger:a|stranger:b", "stranger:c|stranger:d"}
		for _, l := range n.Links {
			ids = append(ids, l.ID, l.ID, l.ID)
		}
		sw := g.NewSweep()
		count := map[LinkID]int{}
		for step := 0; step < 80; step++ {
			id := ids[rng.Intn(len(ids))]
			delta := 1
			if count[id] > 0 && rng.Intn(2) == 0 || rng.Intn(10) == 0 {
				delta = -1
			}
			count[id] += delta
			sw.Add(sw.Link(id), delta)
			if rng.Intn(3) == 0 {
				continue
			}
			// The always-down stranger keeps the reference from
			// taking its nothing-is-down shortcut.
			down := map[LinkID]bool{"always:down|never:known": true}
			var downIDs []LinkID
			for id, c := range count {
				if c > 0 {
					down[id] = true
					downIDs = append(downIDs, id)
				}
			}
			sort.Slice(downIDs, func(i, j int) bool { return downIDs[i] < downIDs[j] })
			if sw.DownCount() != len(downIDs) || !reflect.DeepEqual(sw.DownLinks(), append([]LinkID{}, downIDs...)) {
				t.Fatalf("seed %d step %d: down links %v (%d), want %v", seed, step, sw.DownLinks(), sw.DownCount(), downIDs)
			}
			if sw.Refresh() {
				relabelled++
			} else {
				skipped++
			}
			labels, _ := ref.Components(func(id LinkID) bool { return down[id] })
			for a := range labels {
				for b := range labels {
					if got, want := sw.Connected(a, b), labels[a] == labels[b]; got != want {
						t.Fatalf("seed %d step %d: Connected(%d, %d) = %v, reference %v (down %v)", seed, step, a, b, got, want, downIDs)
					}
				}
			}
			isolated := map[string]bool{}
			for _, name := range ref.IsolatedCustomers(down) {
				isolated[name] = true
			}
			for c, site := range g.Customers() {
				if got, want := sw.Isolated(c), isolated[site.Name]; got != want {
					t.Fatalf("seed %d step %d: Isolated(%s) = %v, reference %v (down %v)", seed, step, site.Name, got, want, downIDs)
				}
			}
		}
	}
	if skipped == 0 || relabelled == 0 {
		t.Errorf("generator too tame: %d labellings skipped, %d done", skipped, relabelled)
	}
}

// TestSweepSteadyStateAllocs pins the labelling and the link moves at
// zero allocations once a sweep exists.
func TestSweepSteadyStateAllocs(t *testing.T) {
	n, links := tinyNetwork(t)
	sw := NewGraph(n).NewSweep()
	u1, ab := sw.Link(links["u1"]), sw.Link(links["ab"])
	allocs := testing.AllocsPerRun(100, func() {
		sw.Add(u1, 1)
		if !sw.Isolated(0) {
			t.Fatal("site-1 not isolated with its uplink down")
		}
		sw.Add(ab, 1)
		sw.Add(u1, -1)
		sw.Add(ab, -1)
		if sw.Isolated(0) || !sw.Connected(0, 1) {
			t.Fatal("healthy network reads as cut")
		}
	})
	if allocs != 0 {
		t.Errorf("a sweep step allocates %.1f times, want 0", allocs)
	}
}
