package listener

import (
	"testing"
	"time"

	"netfail/internal/device"
	"netfail/internal/isis"
	"netfail/internal/syslog"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// testbed builds a 3-router network with devices and a listener fed
// by direct LSP delivery.
type testbed struct {
	net     *topo.Network
	devices map[string]*device.Router
	l       *Listener
	now     time.Time
}

func newTestbed(t *testing.T, parallel bool) *testbed {
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
	link := func(a, b topo.Endpoint, subnet uint32) {
		if _, err := n.AddLink(a, b, subnet, 10); err != nil {
			t.Fatal(err)
		}
	}
	link(topo.Endpoint{Host: "core-a", Port: "Te0"}, topo.Endpoint{Host: "core-b", Port: "Te0"}, 0)
	link(topo.Endpoint{Host: "core-a", Port: "Te1"}, topo.Endpoint{Host: "cpe-1", Port: "Gi0"}, 2)
	if parallel {
		link(topo.Endpoint{Host: "core-a", Port: "Te2"}, topo.Endpoint{Host: "core-b", Port: "Te2"}, 4)
	}
	tb := &testbed{
		net:     n,
		devices: make(map[string]*device.Router),
		l:       New(n),
		now:     time.Date(2011, time.January, 1, 0, 0, 0, 0, time.UTC),
	}
	for name, r := range n.Routers {
		tb.devices[name] = device.New(n, r, syslog.DialectIOSXR)
	}
	return tb
}

// flood originates and delivers one device's LSP.
func (tb *testbed) flood(t *testing.T, name string) {
	t.Helper()
	wire, err := tb.devices[name].EncodeLSP()
	if err != nil {
		t.Fatal(err)
	}
	tb.now = tb.now.Add(100 * time.Millisecond)
	if err := tb.l.Process(tb.now, wire); err != nil {
		t.Fatal(err)
	}
}

// sync floods every device (deterministic order).
func (tb *testbed) sync(t *testing.T) {
	for _, name := range tb.net.RouterNames {
		tb.flood(t, name)
	}
}

// deliver encodes lsp and hands it to the listener a second later.
func (tb *testbed) deliver(t *testing.T, lsp *isis.LSP) {
	t.Helper()
	wire, err := lsp.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	tb.now = tb.now.Add(time.Second)
	if err := tb.l.Process(tb.now, wire); err != nil {
		t.Fatal(err)
	}
}

// purge is a zero-lifetime copy of fragment 0 of sys at seq.
func purge(sys topo.SystemID, seq uint32) *isis.LSP {
	p := isis.NewLSP(sys, seq, "", nil, nil)
	p.Lifetime = 0
	return p
}

func TestBaselineProducesNoTransitions(t *testing.T) {
	tb := newTestbed(t, false)
	tb.sync(t)
	res := tb.l.Results()
	if len(res.ISTransitions) != 0 || len(res.IPTransitions) != 0 {
		t.Errorf("baseline transitions: IS=%d IP=%d", len(res.ISTransitions), len(res.IPTransitions))
	}
	if res.LSPCount != 3 {
		t.Errorf("LSP count = %d", res.LSPCount)
	}
}

func TestAdjacencyWithdrawalEmitsOneDown(t *testing.T) {
	tb := newTestbed(t, false)
	tb.sync(t)
	link := tb.net.Links[0].ID // core-a <-> core-b

	// Both endpoints withdraw; listener must coalesce to ONE Down at
	// the first withdrawal.
	tb.devices["core-a"].Interface(link).SetAdjacency(false)
	tb.flood(t, "core-a")
	firstSeen := tb.now
	tb.devices["core-b"].Interface(link).SetAdjacency(false)
	tb.flood(t, "core-b")

	res := tb.l.Results()
	if len(res.ISTransitions) != 1 {
		t.Fatalf("IS transitions = %+v", res.ISTransitions)
	}
	tr0 := res.ISTransitions[0]
	if tr0.Dir != trace.Down || tr0.Link != link || !tr0.Time.Equal(firstSeen) {
		t.Errorf("transition = %+v", tr0)
	}
	if tr0.Kind != trace.KindISReach {
		t.Errorf("kind = %v", tr0.Kind)
	}

	// Recovery: Up at the FIRST re-advertisement (§3.4: an "up"
	// transition occurs when the adjacency is re-advertised); the
	// second endpoint's re-advertisement changes nothing.
	tb.devices["core-a"].Interface(link).SetAdjacency(true)
	tb.flood(t, "core-a")
	upSeen := tb.now
	res = tb.l.Results()
	if len(res.ISTransitions) != 2 || res.ISTransitions[1].Dir != trace.Up {
		t.Fatalf("transitions = %+v", res.ISTransitions)
	}
	if !res.ISTransitions[1].Time.Equal(upSeen) {
		t.Errorf("Up time = %v, want %v", res.ISTransitions[1].Time, upSeen)
	}
	tb.devices["core-b"].Interface(link).SetAdjacency(true)
	tb.flood(t, "core-b")
	if got := len(tb.l.Results().ISTransitions); got != 2 {
		t.Fatalf("second re-advertisement emitted a transition: %d", got)
	}
}

func TestIPReachabilityIndependentOfAdjacency(t *testing.T) {
	tb := newTestbed(t, false)
	tb.sync(t)
	link := tb.net.Links[1].ID // core-a <-> cpe-1

	// Protocol-only failure: adjacency down, interface (prefix) up.
	tb.devices["core-a"].Interface(link).SetAdjacency(false)
	tb.devices["cpe-1"].Interface(link).SetAdjacency(false)
	tb.flood(t, "core-a")
	tb.flood(t, "cpe-1")
	res := tb.l.Results()
	if len(res.ISTransitions) != 1 {
		t.Fatalf("IS transitions = %d, want 1", len(res.ISTransitions))
	}
	if len(res.IPTransitions) != 0 {
		t.Errorf("IP transitions = %+v, want none (interface stayed up)", res.IPTransitions)
	}

	// Physical failure withdraws the prefix too.
	tb.devices["core-a"].Interface(link).SetPhysical(false)
	tb.flood(t, "core-a")
	res = tb.l.Results()
	if len(res.IPTransitions) != 1 || res.IPTransitions[0].Dir != trace.Down {
		t.Errorf("IP transitions = %+v", res.IPTransitions)
	}
}

func TestMultiLinkAdjacencySkipped(t *testing.T) {
	tb := newTestbed(t, true) // two parallel core-a<->core-b links
	tb.sync(t)
	link := tb.net.Links[0].ID
	if !tb.net.IsMultiLink(link) {
		t.Fatal("setup: link should be multi-link")
	}
	tb.devices["core-a"].Interface(link).SetAdjacency(false)
	tb.flood(t, "core-a")
	tb.devices["core-b"].Interface(link).SetAdjacency(false)
	tb.flood(t, "core-b")
	res := tb.l.Results()
	for _, tr := range res.ISTransitions {
		if tr.Link == link {
			t.Errorf("multi-link transition leaked: %+v", tr)
		}
	}
	if res.MultiLinkSkips == 0 {
		t.Error("skipped multi-link changes not counted")
	}
	// IP reachability still works for parallel links (unique /31s).
	tb.devices["core-a"].Interface(link).SetPhysical(false)
	tb.devices["core-b"].Interface(link).SetPhysical(false)
	tb.flood(t, "core-a")
	res = tb.l.Results()
	if len(res.IPTransitions) != 1 || res.IPTransitions[0].Link != link {
		t.Errorf("IP transitions = %+v", res.IPTransitions)
	}
}

func TestHostnameLearning(t *testing.T) {
	tb := newTestbed(t, false)
	tb.sync(t)
	hostnames := tb.l.Results().Hostnames
	for name, r := range tb.net.Routers {
		if got, ok := hostnames[r.SystemID]; !ok || got != name {
			t.Errorf("Hostnames[%v] = %q, %v", r.SystemID, got, ok)
		}
	}
}

func TestStaleLSPIgnored(t *testing.T) {
	tb := newTestbed(t, false)
	tb.sync(t)
	link := tb.net.Links[0].ID
	d := tb.devices["core-a"]

	// Capture an old LSP, apply a change, deliver new then old.
	oldWire, err := d.EncodeLSP()
	if err != nil {
		t.Fatal(err)
	}
	d.Interface(link).SetAdjacency(false)
	tb.flood(t, "core-a")
	before := len(tb.l.Results().ISTransitions)
	if err := tb.l.Process(tb.now.Add(time.Second), oldWire); err != nil {
		t.Fatal(err)
	}
	res := tb.l.Results()
	if res.StaleLSPs != 1 {
		t.Errorf("stale = %d, want 1", res.StaleLSPs)
	}
	if len(res.ISTransitions) != before {
		t.Error("stale LSP altered state")
	}
}

// TestEqualSequenceIsStale: a live copy at the accepted sequence number
// is not newer (ISO 10589 §7.3.16), so its hostname is not learnt; a
// higher sequence number's is.
func TestEqualSequenceIsStale(t *testing.T) {
	tb := newTestbed(t, false)
	coreA := tb.net.Routers["core-a"].SystemID
	tb.deliver(t, isis.NewLSP(coreA, 5, "core-a", nil, nil))
	tb.deliver(t, isis.NewLSP(coreA, 5, "renamed", nil, nil))
	if got := tb.l.Results().Hostnames[coreA]; got != "core-a" || tb.l.Results().StaleLSPs != 1 {
		t.Errorf("equal sequence: hostname %q, stale %d; want core-a, 1", got, tb.l.Results().StaleLSPs)
	}
	tb.deliver(t, isis.NewLSP(coreA, 6, "renamed", nil, nil))
	if got := tb.l.Results().Hostnames[coreA]; got != "renamed" || tb.l.Results().StaleLSPs != 1 {
		t.Errorf("higher sequence: hostname %q, stale %d; want renamed, 1", got, tb.l.Results().StaleLSPs)
	}
}

// TestPurgeAtEqualSequenceWins: a zero-lifetime copy supersedes a live
// one at the same sequence number, and nothing at that number
// supersedes the purge.
func TestPurgeAtEqualSequenceWins(t *testing.T) {
	tb := newTestbed(t, false)
	coreA := tb.net.Routers["core-a"].SystemID
	tb.deliver(t, isis.NewLSP(coreA, 5, "core-a", nil, nil))
	tb.deliver(t, purge(coreA, 5))
	if got := tb.l.Results().StaleLSPs; got != 0 {
		t.Fatalf("purge at the accepted sequence counted stale (%d)", got)
	}
	tb.deliver(t, purge(coreA, 5))
	tb.deliver(t, isis.NewLSP(coreA, 5, "core-a", nil, nil))
	if got := tb.l.Results().StaleLSPs; got != 2 {
		t.Errorf("stale = %d after a second purge and a live copy at the purged sequence, want 2", got)
	}
}

// TestStalenessIsPerFragment: sequence numbers are compared per LSP
// ID, so a fragment or pseudonode LSP numbered below its originator's
// fragment 0 is still accepted.
func TestStalenessIsPerFragment(t *testing.T) {
	tb := newTestbed(t, false)
	coreA := tb.net.Routers["core-a"].SystemID
	tb.deliver(t, isis.NewLSP(coreA, 9, "core-a", nil, nil))
	frag := isis.NewLSP(coreA, 1, "", nil, nil)
	frag.ID.Fragment = 1
	tb.deliver(t, frag)
	frag.ID.Fragment, frag.ID.Pseudonode = 0, 1
	tb.deliver(t, frag)
	if got := tb.l.Results().StaleLSPs; got != 0 {
		t.Fatalf("stale = %d, want 0: fragments were ordered against each other", got)
	}
	tb.deliver(t, frag)
	if got := tb.l.Results().StaleLSPs; got != 1 {
		t.Errorf("stale = %d after a repeated pseudonode LSP, want 1", got)
	}
}

// TestUnknownOriginatorStaleCounted: a stale copy counts as stale
// before the originator is looked up in the topology, so an unknown
// originator's repeat is not a second unknown originator.
func TestUnknownOriginatorStaleCounted(t *testing.T) {
	tb := newTestbed(t, false)
	ghost := isis.NewLSP(topo.SystemIDFromIndex(999), 1, "ghost", nil, nil)
	tb.deliver(t, ghost)
	tb.deliver(t, ghost)
	res := tb.l.Results()
	if res.UnknownOriginators != 1 || res.StaleLSPs != 1 {
		t.Errorf("unknown %d, stale %d; want 1, 1", res.UnknownOriginators, res.StaleLSPs)
	}
	if got := res.Hostnames[ghost.ID.System]; got != "ghost" {
		t.Errorf("unknown originator's hostname = %q", got)
	}
}

func TestDecodeErrorCounted(t *testing.T) {
	tb := newTestbed(t, false)
	if err := tb.l.Process(tb.now, []byte("garbage")); err == nil {
		t.Error("expected decode error")
	}
	if tb.l.Results().DecodeErrors != 1 {
		t.Errorf("decode errors = %d", tb.l.Results().DecodeErrors)
	}
}

func TestUnknownOriginatorCounted(t *testing.T) {
	tb := newTestbed(t, false)
	// An LSP from a system ID absent from the mined topology.
	foreign := topo.NewNetwork()
	if err := foreign.AddRouter(&topo.Router{Name: "ghost", SystemID: topo.SystemIDFromIndex(999)}); err != nil {
		t.Fatal(err)
	}
	d := device.New(foreign, foreign.Routers["ghost"], syslog.DialectIOS)
	wire, err := d.EncodeLSP()
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.l.Process(tb.now, wire); err != nil {
		t.Fatal(err)
	}
	if tb.l.Results().UnknownOriginators != 1 {
		t.Errorf("unknown originators = %d", tb.l.Results().UnknownOriginators)
	}
}

func TestRefreshWithoutChangeSilent(t *testing.T) {
	tb := newTestbed(t, false)
	tb.sync(t)
	for i := 0; i < 5; i++ {
		tb.flood(t, "core-a") // periodic refresh, same content
	}
	res := tb.l.Results()
	if len(res.ISTransitions)+len(res.IPTransitions) != 0 {
		t.Error("refreshes produced transitions")
	}
}

// helloHeader is the common header of a point-to-point IIH and nothing
// behind it: isis has no hello decoder, and the listener must count the
// PDU by its type without needing one.
var helloHeader = []byte{isis.IRPD, 8, isis.ProtocolVersion, 0, byte(isis.TypeP2PHello), isis.ProtocolVersion, 0, 0}

// csnpHeader is the same for a CSNP: the listener takes no part in the
// database exchange and skips the PDU unread.
var csnpHeader = []byte{isis.IRPD, 8, isis.ProtocolVersion, 0, byte(isis.TypeCSNPL2), isis.ProtocolVersion, 0, 0}

func TestNonLSPPDUsSkipped(t *testing.T) {
	tb := newTestbed(t, false)
	tb.sync(t)
	if err := tb.l.Process(tb.now, helloHeader); err != nil {
		t.Fatalf("hello should be skipped, not error: %v", err)
	}
	if err := tb.l.Process(tb.now, csnpHeader); err != nil {
		t.Fatalf("CSNP should be skipped, not error: %v", err)
	}
	res := tb.l.Results()
	if res.OtherPDUs != 2 {
		t.Errorf("other PDUs = %d, want 2", res.OtherPDUs)
	}
	if res.DecodeErrors != 0 {
		t.Errorf("decode errors = %d", res.DecodeErrors)
	}
}

func TestResultsHostnamesIsACopy(t *testing.T) {
	tb := newTestbed(t, false)
	tb.sync(t)
	res := tb.l.Results()
	if res.Hostnames[topo.SystemIDFromIndex(1)] != "core-a" {
		t.Fatalf("hostnames = %v", res.Hostnames)
	}
	// Mutating the returned map must not corrupt the listener's
	// internal hostname table.
	res.Hostnames[topo.SystemIDFromIndex(1)] = "mallory"
	delete(res.Hostnames, topo.SystemIDFromIndex(2))

	again := tb.l.Results()
	if got := again.Hostnames[topo.SystemIDFromIndex(1)]; got != "core-a" {
		t.Errorf("hostname after caller mutation = %q, want core-a", got)
	}
	if got := again.Hostnames[topo.SystemIDFromIndex(2)]; got != "core-b" {
		t.Errorf("hostname after caller delete = %q, want core-b", got)
	}
}
