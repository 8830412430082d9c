package topo

import (
	"reflect"
	"testing"
)

func mustGenerate(t *testing.T, spec Spec) *Network {
	t.Helper()
	n, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return n
}

func TestGenerateDefaultScale(t *testing.T) {
	n := mustGenerate(t, DefaultSpec())
	core, cpe := n.CountRouters()
	if core != 60 || cpe != 175 {
		t.Errorf("routers = %d core, %d cpe; want 60, 175", core, cpe)
	}
	coreLinks, cpeLinks := n.CountLinks()
	if coreLinks != 84 {
		t.Errorf("core links = %d, want 84", coreLinks)
	}
	if cpeLinks != 215 {
		t.Errorf("cpe links = %d, want 215", cpeLinks)
	}
	if got := len(n.MultiLinkAdjacencies()); got != 26 {
		t.Errorf("multi-link adjacency pairs = %d, want 26", got)
	}
	if len(n.Customers) != 120 {
		t.Errorf("customers = %d, want 120", len(n.Customers))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, DefaultSpec())
	b := mustGenerate(t, DefaultSpec())
	if len(a.Links) != len(b.Links) {
		t.Fatalf("link counts differ: %d vs %d", len(a.Links), len(b.Links))
	}
	for i := range a.Links {
		if !reflect.DeepEqual(a.Links[i], b.Links[i]) {
			t.Fatalf("link %d differs:\n%+v\n%+v", i, a.Links[i], b.Links[i])
		}
	}
}

func TestGenerateUniqueSubnets(t *testing.T) {
	n := mustGenerate(t, DefaultSpec())
	seen := make(map[uint32]LinkID)
	for _, l := range n.Links {
		if l.Subnet&1 != 0 {
			t.Errorf("link %s subnet %s not /31-aligned", l.ID, FormatIPv4(l.Subnet))
		}
		if prev, dup := seen[l.Subnet]; dup {
			t.Errorf("subnet %s shared by %s and %s", FormatIPv4(l.Subnet), prev, l.ID)
		}
		seen[l.Subnet] = l.ID
	}
}

func TestGenerateInterfaceAddressing(t *testing.T) {
	n := mustGenerate(t, DefaultSpec())
	for _, l := range n.Links {
		ra := n.Routers[l.A.Host]
		rb := n.Routers[l.B.Host]
		ia, ib := ra.Interface(l.A.Port), rb.Interface(l.B.Port)
		if ia == nil || ib == nil {
			t.Fatalf("link %s missing interface records", l.ID)
		}
		if ia.Addr != l.Subnet || ib.Addr != l.Subnet+1 {
			t.Errorf("link %s addresses %s/%s, want %s/%s", l.ID,
				FormatIPv4(ia.Addr), FormatIPv4(ib.Addr),
				FormatIPv4(l.Subnet), FormatIPv4(l.Subnet+1))
		}
		if ia.Link != l.ID || ib.Link != l.ID {
			t.Errorf("link %s interfaces back-reference %s / %s", l.ID, ia.Link, ib.Link)
		}
	}
}

func TestGenerateEveryCPEHasUplink(t *testing.T) {
	n := mustGenerate(t, DefaultSpec())
	degree := make(map[string]int)
	for _, l := range n.Links {
		degree[l.A.Host]++
		degree[l.B.Host]++
	}
	for name, r := range n.Routers {
		if r.Class == CPE && degree[name] == 0 {
			t.Errorf("CPE router %s has no uplink", name)
		}
	}
}

func TestGenerateCustomersCoverAllCPE(t *testing.T) {
	n := mustGenerate(t, DefaultSpec())
	assigned := make(map[string]string)
	for _, c := range n.Customers {
		if len(c.Routers) == 0 {
			t.Errorf("customer %s has no routers", c.Name)
		}
		for _, r := range c.Routers {
			if prev, dup := assigned[r]; dup {
				t.Errorf("router %s assigned to both %s and %s", r, prev, c.Name)
			}
			assigned[r] = c.Name
		}
	}
	_, cpe := n.CountRouters()
	if len(assigned) != cpe {
		t.Errorf("assigned %d CPE routers to customers, want %d", len(assigned), cpe)
	}
}

func TestGenerateConnected(t *testing.T) {
	n := mustGenerate(t, DefaultSpec())
	g := NewGraph(n)
	_, comps := g.components(nil)
	if comps != 1 {
		t.Errorf("healthy network has %d components, want 1", comps)
	}
}

func TestGenerateLookupIndexes(t *testing.T) {
	n := mustGenerate(t, DefaultSpec())
	for _, l := range n.Links {
		if got, ok := n.LinkByID(l.ID); !ok || got != l {
			t.Errorf("LinkByID(%s) failed", l.ID)
		}
		if got, ok := n.bySubnet[l.Subnet]; !ok || got != l {
			t.Errorf("subnet %s resolves to no link or another", FormatIPv4(l.Subnet))
		}
	}
	for name, r := range n.Routers {
		if got, ok := n.RouterByID(r.SystemID); !ok || got.Name != name {
			t.Errorf("RouterByID(%v) failed for %s", r.SystemID, name)
		}
	}
}

func TestGenerateRejectsBadSpecs(t *testing.T) {
	spec := DefaultSpec()
	spec.CoreRouters = 2
	if _, err := Generate(spec); err == nil {
		t.Error("expected error for too few core routers")
	}
	spec = DefaultSpec()
	spec.Customers = spec.CPERouters + 1
	if _, err := Generate(spec); err == nil {
		t.Error("expected error for more customers than CPE routers")
	}
}

func TestAddLinkValidation(t *testing.T) {
	n := NewNetwork()
	for _, name := range []string{"a", "b"} {
		r := &Router{Name: name, Class: Core, SystemID: SystemIDFromIndex(len(n.Routers) + 1)}
		if err := n.AddRouter(r); err != nil {
			t.Fatal(err)
		}
	}
	ea := Endpoint{Host: "a", Port: "p0"}
	eb := Endpoint{Host: "b", Port: "p0"}
	if _, err := n.AddLink(ea, eb, 3, 10); err == nil {
		t.Error("odd subnet accepted")
	}
	if _, err := n.AddLink(ea, Endpoint{Host: "zzz", Port: "p0"}, 2, 10); err == nil {
		t.Error("unknown router accepted")
	}
	if _, err := n.AddLink(ea, eb, 2, 10); err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	if _, err := n.AddLink(ea, Endpoint{Host: "b", Port: "p1"}, 4, 10); err == nil {
		t.Error("interface reuse accepted")
	}
	if _, err := n.AddLink(Endpoint{Host: "a", Port: "p1"}, Endpoint{Host: "b", Port: "p1"}, 2, 10); err == nil {
		t.Error("duplicate subnet accepted")
	}
}

func TestAddRouterDuplicates(t *testing.T) {
	n := NewNetwork()
	r1 := &Router{Name: "a", SystemID: SystemIDFromIndex(1)}
	if err := n.AddRouter(r1); err != nil {
		t.Fatal(err)
	}
	if err := n.AddRouter(&Router{Name: "a", SystemID: SystemIDFromIndex(2)}); err == nil {
		t.Error("duplicate hostname accepted")
	}
	if err := n.AddRouter(&Router{Name: "b", SystemID: SystemIDFromIndex(1)}); err == nil {
		t.Error("duplicate system ID accepted")
	}
}
