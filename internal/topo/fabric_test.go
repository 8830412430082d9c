package topo

import (
	"fmt"
	"testing"
)

func TestFabricDomainsAreDisjoint(t *testing.T) {
	domains, err := Fabric(FabricSpec{Domains: 3, Spines: 4, Leaves: 6, Metric: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(domains) != 3 {
		t.Fatalf("got %d domains, want 3", len(domains))
	}
	backbone, err := Generate(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}

	hosts := map[string]string{}
	ids := map[SystemID]string{}
	subnets := map[uint32]string{}
	note := func(dom string, n *Network) {
		for _, name := range n.RouterNames {
			if prev, dup := hosts[name]; dup {
				t.Fatalf("hostname %q in both %s and %s", name, prev, dom)
			}
			hosts[name] = dom
			r := n.Routers[name]
			if prev, dup := ids[r.SystemID]; dup {
				t.Fatalf("system ID %v in both %s and %s", r.SystemID, prev, dom)
			}
			ids[r.SystemID] = dom
		}
		for _, l := range n.Links {
			if prev, dup := subnets[l.Subnet]; dup {
				t.Fatalf("subnet %s in both %s and %s", FormatIPv4(l.Subnet), prev, dom)
			}
			subnets[l.Subnet] = dom
		}
	}
	note("backbone", backbone)
	for _, d := range domains {
		note(d.Name, d.Net)
	}

	for _, d := range domains {
		if got, want := len(d.Net.Links), 4*6; got != want {
			t.Errorf("%s has %d links, want %d", d.Name, got, want)
		}
		core, cpe := d.Net.CountRouters()
		if core != 4 || cpe != 6 {
			t.Errorf("%s routers = %d core, %d cpe", d.Name, core, cpe)
		}
		if len(d.Net.Customers) != 6 {
			t.Errorf("%s has %d customers, want 6", d.Name, len(d.Net.Customers))
		}
	}
}

// TestFabricScalesToTenThousandLinks pins the data-center-scale claim:
// a modest fabric spec clears 10k links and merges cleanly with the
// backbone.
func TestFabricScalesToTenThousandLinks(t *testing.T) {
	domains, err := Fabric(FabricSpec{Domains: 4, Spines: 32, Leaves: 80, Metric: 10})
	if err != nil {
		t.Fatal(err)
	}
	backbone, err := Generate(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	nets := []*Network{backbone}
	links := len(backbone.Links)
	for _, d := range domains {
		nets = append(nets, d.Net)
		links += len(d.Net.Links)
	}
	if links < 10000 {
		t.Fatalf("total links %d, want >= 10000", links)
	}
	merged, err := Merge(nets...)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Links) != links {
		t.Fatalf("merged %d links, want %d", len(merged.Links), links)
	}
	if len(merged.RouterNames) != len(backbone.RouterNames)+4*(32+80) {
		t.Fatalf("merged %d routers", len(merged.RouterNames))
	}
	// Lookup paths must work through the merged view.
	probe := domains[2].Net.Links[17]
	if l, ok := merged.LinkByID(probe.ID); !ok || l != probe {
		t.Fatalf("merged LinkByID(%s) = %v, %v", probe.ID, l, ok)
	}
	if _, ok := merged.bySubnet[probe.Subnet]; !ok {
		t.Fatal("merged network misses a subnet")
	}
	r := domains[0].Net.Routers[domains[0].Net.RouterNames[0]]
	if got, ok := merged.RouterByID(r.SystemID); !ok || got != r {
		t.Fatal("merged RouterByID failed")
	}
}

func TestMergeRejectsOverlap(t *testing.T) {
	a, err := Generate(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(a, b); err == nil {
		t.Fatal("Merge accepted overlapping networks")
	}
}

func TestFabricSpecValidation(t *testing.T) {
	for _, spec := range []FabricSpec{
		{Domains: -1},
		{Domains: 81},
		{Domains: 1, Spines: 0, Leaves: 5},
		{Domains: 1, Spines: 500, Leaves: 5},
	} {
		if _, err := Fabric(spec); err == nil {
			t.Errorf("Fabric(%+v) accepted an invalid spec", spec)
		}
	}
	if domains, err := Fabric(FabricSpec{Domains: 0}); err != nil || len(domains) != 0 {
		t.Errorf("zero-domain fabric: %v, %d domains", err, len(domains))
	}
}

func TestFabricDeterministic(t *testing.T) {
	a, err := Fabric(DefaultFabricSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fabric(DefaultFabricSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		la, lb := a[i].Net.Links, b[i].Net.Links
		if len(la) != len(lb) {
			t.Fatalf("domain %d link counts differ", i)
		}
		for j := range la {
			if fmt.Sprint(*la[j]) != fmt.Sprint(*lb[j]) {
				t.Fatalf("domain %d link %d differs: %v vs %v", i, j, *la[j], *lb[j])
			}
		}
	}
}
