package topo

import "testing"

// tinyNetwork builds a 3-core triangle with two customers: site-1 has
// a single-homed CPE, site-2 a dual-homed CPE.
func tinyNetwork(t *testing.T) (*Network, map[string]LinkID) {
	t.Helper()
	n := NewNetwork()
	names := []string{"core-a", "core-b", "core-c", "cpe-1", "cpe-2"}
	for i, name := range names {
		class := Core
		if i >= 3 {
			class = CPE
		}
		if err := n.AddRouter(&Router{Name: name, Class: class, SystemID: SystemIDFromIndex(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	links := make(map[string]LinkID)
	add := func(tag, a, b string, subnet uint32) {
		l, err := n.AddLink(Endpoint{Host: a, Port: "p-" + tag}, Endpoint{Host: b, Port: "q-" + tag}, subnet, 10)
		if err != nil {
			t.Fatal(err)
		}
		links[tag] = l.ID
	}
	add("ab", "core-a", "core-b", 0)
	add("bc", "core-b", "core-c", 2)
	add("ca", "core-c", "core-a", 4)
	add("u1", "cpe-1", "core-a", 6)
	add("u2a", "cpe-2", "core-b", 8)
	add("u2b", "cpe-2", "core-c", 10)
	n.Customers = []*Customer{
		{Name: "site-1", Routers: []string{"cpe-1"}},
		{Name: "site-2", Routers: []string{"cpe-2"}},
	}
	return n, links
}

func TestComponentsHealthy(t *testing.T) {
	n, _ := tinyNetwork(t)
	g := NewGraph(n)
	_, comps := g.components(nil)
	if comps != 1 {
		t.Errorf("components = %d, want 1", comps)
	}
}

func TestIsolationSingleHomed(t *testing.T) {
	n, links := tinyNetwork(t)
	g := NewGraph(n)
	down := map[LinkID]bool{links["u1"]: true}
	got := g.IsolatedCustomers(down)
	if len(got) != 1 || got[0] != "site-1" {
		t.Errorf("isolated = %v, want [site-1]", got)
	}
}

func TestIsolationDualHomedSurvivesOneCut(t *testing.T) {
	n, links := tinyNetwork(t)
	g := NewGraph(n)
	down := map[LinkID]bool{links["u2a"]: true}
	if got := g.IsolatedCustomers(down); len(got) != 0 {
		t.Errorf("isolated = %v, want none", got)
	}
}

func TestIsolationDualHomedBothCut(t *testing.T) {
	n, links := tinyNetwork(t)
	g := NewGraph(n)
	down := map[LinkID]bool{links["u2a"]: true, links["u2b"]: true}
	got := g.IsolatedCustomers(down)
	if len(got) != 1 || got[0] != "site-2" {
		t.Errorf("isolated = %v, want [site-2]", got)
	}
}

func TestIsolationRingSurvivesOneCoreCut(t *testing.T) {
	n, links := tinyNetwork(t)
	g := NewGraph(n)
	down := map[LinkID]bool{links["ab"]: true}
	if got := g.IsolatedCustomers(down); len(got) != 0 {
		t.Errorf("isolated = %v, want none (ring reroutes)", got)
	}
}

func TestIsolationEmptyDownSet(t *testing.T) {
	n, _ := tinyNetwork(t)
	g := NewGraph(n)
	if got := g.IsolatedCustomers(nil); got != nil {
		t.Errorf("isolated = %v, want nil", got)
	}
}

func TestReachable(t *testing.T) {
	n, links := tinyNetwork(t)
	g := NewGraph(n)
	if !g.reachable("cpe-1", "core-c", nil) {
		t.Error("cpe-1 should reach core-c on healthy network")
	}
	down := map[LinkID]bool{links["u1"]: true}
	if g.reachable("cpe-1", "core-c", down) {
		t.Error("cpe-1 should be cut off with its uplink down")
	}
	if !g.reachable("core-a", "core-b", down) {
		t.Error("core ring should be unaffected")
	}
	if g.reachable("cpe-1", "nonexistent", nil) {
		t.Error("unknown router should not be reachable")
	}
}

func TestBackboneComponentPrefersCoreMajority(t *testing.T) {
	n, links := tinyNetwork(t)
	g := NewGraph(n)
	// Cut core-c off from a and b (including the detour through the
	// dual-homed cpe-2): component with 2 cores wins.
	down := func(id LinkID) bool {
		return id == links["bc"] || id == links["ca"] || id == links["u2b"]
	}
	labels, comps := g.components(down)
	if comps < 2 {
		t.Fatalf("expected a partition, got %d components", comps)
	}
	backbone := g.backboneComponent(labels)
	idx, _ := g.Node("core-a")
	if labels[idx] != backbone {
		t.Error("backbone component should contain the 2-core side")
	}
}

// TestUnknownCustomerRouterIsNotNodeZero: a hostname in the customer
// list that the network lacks (a damaged customers.json read
// leniently, a hand-written one) used to miss the hostname index and
// come back as node 0, so the site inherited the first router's
// reachability.
func TestUnknownCustomerRouterIsNotNodeZero(t *testing.T) {
	n, links := tinyNetwork(t)
	n.Customers = []*Customer{
		{Name: "half-known", Routers: []string{"cpe-1", "ghost"}},
		{Name: "unknown", Routers: []string{"ghost"}},
		{Name: "empty"},
	}
	// Node 0 is core-a, in the backbone: with cpe-1 cut off the
	// half-known site has no router left that reaches it.
	got := NewGraph(n).IsolatedCustomers(map[LinkID]bool{links["u1"]: true})
	if len(got) != 1 || got[0] != "half-known" {
		t.Errorf("isolated = %v, want [half-known]", got)
	}

	// Now make node 0 a router that is cut off: a site with no known
	// router must not be reported isolated along with it.
	i := 0
	for n.RouterNames[i] != "cpe-1" {
		i++
	}
	n.RouterNames[0], n.RouterNames[i] = n.RouterNames[i], n.RouterNames[0]
	got = NewGraph(n).IsolatedCustomers(map[LinkID]bool{links["u1"]: true})
	if len(got) != 1 || got[0] != "half-known" {
		t.Errorf("with cpe-1 as node 0: isolated = %v, want [half-known]", got)
	}
}

// components labels each router with a connected-component number,
// ignoring links for which down returns true. It returns the label
// slice (indexed like node indices) and the number of components.
func (g *Graph) components(down func(LinkID) bool) ([]int, int) {
	s := g.NewSweep()
	if down != nil {
		for l, link := range g.links {
			if down(link.ID) {
				s.Add(l, 1)
			}
		}
	}
	s.Refresh()
	return s.labels, s.comps
}

// backboneComponent returns the component label containing the most
// core routers; labels is what components returned.
func (g *Graph) backboneComponent(labels []int) int {
	return g.backboneOf(labels, make([]int32, len(g.adj)))
}

// reachable reports whether a path exists between two routers with the
// given links down.
func (g *Graph) reachable(from, to string, down map[LinkID]bool) bool {
	fi, ok := g.index[from]
	if !ok {
		return false
	}
	ti, ok := g.index[to]
	if !ok {
		return false
	}
	s := g.NewSweep()
	for id, d := range down {
		if l, ok := g.linkIndex[id]; ok && d {
			s.Add(int(l), 1)
		}
	}
	return s.Connected(fi, ti)
}
