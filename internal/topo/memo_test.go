package topo

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestIsolationMemoMatchesReference runs two sweeps over one graph,
// taking turns with one memo, through down sets that come back as a
// flapping link brings them back. Every answer must be the reference's
// on the down set as it then stands, and the memo must answer every
// down set after its first sight: it keys on the set, whatever its
// size, and the key follows links back up as well as down.
func TestIsolationMemoMatchesReference(t *testing.T) {
	lookups, distinct, hits := 0, 0, 0
	for seed := 0; seed < equivalenceCases(); seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := randomNetwork(t, rng)
		if len(n.Links) == 0 {
			continue
		}
		g, ref := NewGraph(n), refNewGraph(n)
		m := g.NewIsolationMemo()
		seen := map[string]bool{}
		sweeps := [2]*Sweep{g.NewSweep(), g.NewSweep()}
		counts := [2]map[LinkID]int{{}, {}}
		stranger := LinkID("stranger:a|stranger:b")
		for step := 0; step < 120; step++ {
			w := rng.Intn(2)
			sw, count := sweeps[w], counts[w]
			// Mostly one link flapping, so sets recur; now and then
			// another link moves, or a stranger.
			id := n.Links[seed%len(n.Links)].ID
			switch rng.Intn(5) {
			case 0:
				id = n.Links[rng.Intn(len(n.Links))].ID
			case 1:
				id = stranger
			}
			delta := 1
			if count[id] > 0 && rng.Intn(2) == 0 {
				delta = -1
			}
			count[id] += delta
			sw.Add(sw.Link(id), delta)

			down := map[LinkID]bool{"always:down|never:known": true}
			var ids []string
			for id, c := range count {
				if c > 0 {
					down[id] = true
					ids = append(ids, string(id))
				}
			}
			sort.Strings(ids)
			if key := strings.Join(ids, " "); !seen[key] {
				seen[key] = true
				distinct++
			}
			lookups++
			set := sw.IsolatedSet(m)
			isolated := map[string]bool{}
			for _, name := range ref.IsolatedCustomers(down) {
				isolated[name] = true
			}
			for c, site := range g.Customers() {
				if got := set[c/64]>>(c%64)&1 == 1; got != isolated[site.Name] {
					t.Fatalf("seed %d step %d: customer %s isolated %v, reference %v (down %v)", seed, step, site.Name, got, isolated[site.Name], ids)
				}
			}
		}
		// Nothing was evicted, so every entry is a miss.
		hits += 120 - (len(m.at) - 1)
	}
	if want := lookups - distinct; hits != want {
		t.Errorf("memo answered %d of %d lookups, want every one after a set's first sight: %d", hits, lookups, want)
	}
	if hits == 0 || distinct == 0 {
		t.Errorf("generator too tame: %d lookups, %d distinct down sets", lookups, distinct)
	}
}

// TestIsolationMemoBounded walks more distinct down sets than the memo
// holds: it starts over instead of growing, and keeps answering right.
func TestIsolationMemoBounded(t *testing.T) {
	n := NewNetwork()
	for i := 0; i < 14; i++ {
		if err := n.AddRouter(&Router{Name: fmt.Sprintf("r%02d", i), Class: Core, SystemID: SystemIDFromIndex(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 13; i++ {
		a, b := fmt.Sprintf("r%02d", i), fmt.Sprintf("r%02d", i+1)
		if _, err := n.AddLink(Endpoint{Host: a, Port: "p"}, Endpoint{Host: b, Port: "q"}, uint32(2*i), 10); err != nil {
			t.Fatal(err)
		}
		n.Customers = append(n.Customers, &Customer{Name: a, Routers: []string{a}})
	}
	g := NewGraph(n)
	m, sw := g.NewIsolationMemo(), g.NewSweep()
	prev := 0
	for set := 1; set < 1<<len(n.Links) && set <= memoEntries+500; set++ {
		for l := range n.Links {
			if was, now := prev>>l&1, set>>l&1; was != now {
				sw.Add(l, now-was)
			}
		}
		prev = set
		got := sw.IsolatedSet(m)
		for c := range g.Customers() {
			if want := sw.Isolated(c); (got[c/64]>>(c%64)&1 == 1) != want {
				t.Fatalf("down set %b: customer %d isolated %v, want %v", set, c, !want, want)
			}
		}
		if len(m.at)-1 > memoEntries || len(m.sets) > memoEntries*m.words {
			t.Fatalf("down set %b: memo holds %d sets, bound is %d", set, len(m.at)-1, memoEntries)
		}
	}
	if len(m.at)-1 >= memoEntries {
		t.Errorf("memo holds %d sets after %d distinct ones: it never started over", len(m.at)-1, memoEntries+500)
	}
}

// TestIsolationMemoHitAllocs: a down set the memo has seen costs no
// allocation.
func TestIsolationMemoHitAllocs(t *testing.T) {
	n, links := tinyNetwork(t)
	g := NewGraph(n)
	m, sw := g.NewIsolationMemo(), g.NewSweep()
	u1 := sw.Link(links["u1"])
	allocs := testing.AllocsPerRun(100, func() {
		sw.Add(u1, 1)
		if sw.IsolatedSet(m)[0] != 1 {
			t.Fatal("site-1 not isolated with its uplink down")
		}
		sw.Add(u1, -1)
	})
	if allocs != 0 {
		t.Errorf("a memo hit allocates %.1f times, want 0", allocs)
	}
}
