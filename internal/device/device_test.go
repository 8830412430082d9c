package device

import (
	"testing"
	"time"

	"netfail/internal/isis"
	"netfail/internal/syslog"
	"netfail/internal/topo"
)

func testNet(t *testing.T) *topo.Network {
	t.Helper()
	n := topo.NewNetwork()
	for i, name := range []string{"core-a", "core-b", "cpe-1"} {
		class := topo.Core
		if name == "cpe-1" {
			class = topo.CPE
		}
		if err := n.AddRouter(&topo.Router{
			Name: name, Class: class,
			SystemID: topo.SystemIDFromIndex(i + 1),
			Loopback: 10<<24 | uint32(i+1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	mustLink := func(a, b topo.Endpoint, subnet uint32) {
		if _, err := n.AddLink(a, b, subnet, 10); err != nil {
			t.Fatal(err)
		}
	}
	mustLink(topo.Endpoint{Host: "core-a", Port: "Te0/0/0/0"}, topo.Endpoint{Host: "core-b", Port: "Te0/0/0/0"}, 0)
	mustLink(topo.Endpoint{Host: "core-a", Port: "Te0/0/0/1"}, topo.Endpoint{Host: "cpe-1", Port: "Gi0/0/0"}, 2)
	return n
}

func TestOriginateLSPHealthy(t *testing.T) {
	n := testNet(t)
	d := New(n, n.Routers["core-a"], syslog.DialectIOSXR)
	lsp := d.OriginateLSP()
	if lsp.Sequence != 1 {
		t.Errorf("sequence = %d, want 1", lsp.Sequence)
	}
	if lsp.Hostname != "core-a" {
		t.Errorf("hostname = %q", lsp.Hostname)
	}
	if len(lsp.Neighbors) != 2 {
		t.Fatalf("neighbors = %d, want 2", len(lsp.Neighbors))
	}
	// Loopback /32 plus two /31s.
	if len(lsp.Prefixes) != 3 {
		t.Fatalf("prefixes = %+v", lsp.Prefixes)
	}
	if lsp.Prefixes[0].Length != 32 || lsp.Prefixes[0].Addr != d.Info.Loopback {
		t.Errorf("first prefix should be the loopback: %+v", lsp.Prefixes[0])
	}
	// Wire round trip preserves everything.
	wire, err := lsp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var back isis.LSP
	if err := back.DecodeFromBytes(wire); err != nil {
		t.Fatal(err)
	}
	if len(back.Neighbors) != 2 || len(back.Prefixes) != 3 {
		t.Errorf("wire round trip lost content: %+v", back)
	}
}

func TestAdjacencyDownRemovesNeighborOnly(t *testing.T) {
	n := testNet(t)
	d := New(n, n.Routers["core-a"], syslog.DialectIOSXR)
	link := n.Links[0].ID // core-a <-> core-b
	if !d.SetAdjacency(link, false) {
		t.Fatal("SetAdjacency reported no change")
	}
	if d.SetAdjacency(link, false) {
		t.Error("repeated SetAdjacency should report no change")
	}
	lsp := d.OriginateLSP()
	if len(lsp.Neighbors) != 1 {
		t.Fatalf("neighbors = %d, want 1", len(lsp.Neighbors))
	}
	// Physical state untouched: both /31s still advertised.
	if len(lsp.Prefixes) != 3 {
		t.Errorf("prefixes = %d, want 3 (protocol failure keeps IP reachability)", len(lsp.Prefixes))
	}
	if !d.SetAdjacency(link, true) {
		t.Error("restore reported no change")
	}
	if got := len(d.OriginateLSP().Neighbors); got != 2 {
		t.Errorf("neighbors after restore = %d", got)
	}
}

func TestPhysicalDownWithdrawsPrefix(t *testing.T) {
	n := testNet(t)
	d := New(n, n.Routers["core-a"], syslog.DialectIOSXR)
	link := n.Links[1].ID // core-a <-> cpe-1
	d.Interface(link).SetPhysical(false)
	d.SetAdjacency(link, false)
	lsp := d.OriginateLSP()
	if len(lsp.Prefixes) != 2 {
		t.Errorf("prefixes = %+v, want loopback + one /31", lsp.Prefixes)
	}
	for _, p := range lsp.Prefixes {
		if p.Length == 31 && p.Addr == 2 {
			t.Error("failed link's /31 still advertised")
		}
	}
}

func TestSequenceIncrements(t *testing.T) {
	n := testNet(t)
	d := New(n, n.Routers["cpe-1"], syslog.DialectIOS)
	for want := uint32(1); want <= 5; want++ {
		if got := d.OriginateLSP().Sequence; got != want {
			t.Fatalf("sequence = %d, want %d", got, want)
		}
	}
	if d.lspSeq != 5 {
		t.Errorf("lspSeq = %d", d.lspSeq)
	}
}

func TestAdjMessageNamesPeerAndPort(t *testing.T) {
	n := testNet(t)
	d := New(n, n.Routers["cpe-1"], syslog.DialectIOS)
	link := n.Links[1].ID
	ts := time.Date(2011, 3, 1, 2, 3, 4, 0, time.UTC)
	m := d.Interface(link).AdjMessage(ts, false, "hold time expired")
	var ev syslog.LinkEvent
	if err := syslog.ParseLinkEventInto(m, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Router != "cpe-1" || ev.Neighbor != "core-a" || ev.Interface != "Gi0/0/0" || ev.Up {
		t.Errorf("event = %+v", ev)
	}
	if m.Seq != 1 {
		t.Errorf("seq = %d", m.Seq)
	}
}

func TestLinkMessages(t *testing.T) {
	n := testNet(t)
	d := New(n, n.Routers["core-b"], syslog.DialectIOSXR)
	link := n.Links[0].ID
	ts := time.Date(2011, 3, 1, 2, 3, 4, 0, time.UTC)
	msgs := d.Interface(link).LinkMessages(ts, false)
	var ev0, ev1 syslog.LinkEvent
	if err := syslog.ParseLinkEventInto(msgs[0], &ev0); err != nil {
		t.Fatal(err)
	}
	if err := syslog.ParseLinkEventInto(msgs[1], &ev1); err != nil {
		t.Fatal(err)
	}
	if ev0.Type != syslog.EventLink || ev1.Type != syslog.EventLineProto {
		t.Errorf("types = %v, %v", ev0.Type, ev1.Type)
	}
	if ev0.Interface != "Te0/0/0/0" {
		t.Errorf("interface = %q", ev0.Interface)
	}
}

func TestAdjMessageUnknownLink(t *testing.T) {
	n := testNet(t)
	d := New(n, n.Routers["core-a"], syslog.DialectIOSXR)
	if d.Interface(topo.LinkID("bogus")) != nil {
		t.Error("an unknown link has an interface")
	}
	// A real link this router does not terminate.
	other := n.Links[1]
	dB := New(n, n.Routers["core-b"], syslog.DialectIOSXR)
	if dB.Interface(other.ID) != nil {
		t.Error("a foreign link has an interface")
	}
}

func TestParallelLinksAdvertiseDuplicateNeighbors(t *testing.T) {
	n := testNet(t)
	// Add a second link between core-a and core-b.
	if _, err := n.AddLink(
		topo.Endpoint{Host: "core-a", Port: "Te0/0/0/2"},
		topo.Endpoint{Host: "core-b", Port: "Te0/0/0/2"}, 4, 10); err != nil {
		t.Fatal(err)
	}
	d := New(n, n.Routers["core-a"], syslog.DialectIOSXR)
	lsp := d.OriginateLSP()
	// core-b twice (two parallel links) + cpe-1 once.
	count := 0
	for _, nb := range lsp.Neighbors {
		if nb.System == n.Routers["core-b"].SystemID {
			count++
		}
	}
	if count != 2 {
		t.Errorf("parallel adjacency entries = %d, want 2", count)
	}
	// One goes down: still one entry left, so a set-based listener
	// cannot see the failure — the multi-link blindness of §3.4.
	d.SetAdjacency(n.Links[0].ID, false)
	lsp = d.OriginateLSP()
	count = 0
	for _, nb := range lsp.Neighbors {
		if nb.System == n.Routers["core-b"].SystemID {
			count++
		}
	}
	if count != 1 {
		t.Errorf("after one parallel down, entries = %d, want 1", count)
	}
}

func TestLinkMessagesUnknownLink(t *testing.T) {
	n := testNet(t)
	d := New(n, n.Routers["core-a"], syslog.DialectIOSXR)
	if d.Interface(topo.LinkID("bogus")) != nil {
		t.Error("unknown link accepted")
	}
}

func TestAdjacencyUpQuery(t *testing.T) {
	n := testNet(t)
	d := New(n, n.Routers["core-a"], syslog.DialectIOSXR)
	link := n.Links[0].ID
	if d.Interface(link).adjDown {
		t.Error("fresh device should have adjacency up")
	}
	d.SetAdjacency(link, false)
	if !d.Interface(link).adjDown {
		t.Error("adjacency should be down")
	}
}

func TestSetPhysicalIdempotent(t *testing.T) {
	n := testNet(t)
	d := New(n, n.Routers["core-a"], syslog.DialectIOSXR)
	ifc := d.Interface(n.Links[0].ID)
	if !ifc.SetPhysical(false) || ifc.SetPhysical(false) {
		t.Error("SetPhysical change reporting wrong")
	}
	if !ifc.SetPhysical(true) || ifc.SetPhysical(true) {
		t.Error("SetPhysical restore reporting wrong")
	}
}
