package device

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"netfail/internal/isis"
	"netfail/internal/syslog"
	"netfail/internal/topo"
)

// refOriginate is the pre-table OriginateLSP, verbatim but for taking
// its state as arguments: every interface resolved through the
// network's maps on every call, down state in two LinkID-keyed maps,
// neighbor and prefix lists grown from nil.
func refOriginate(net *topo.Network, info *topo.Router, seq uint32, linkIDs bool, adjDown, physDown map[topo.LinkID]bool) *isis.LSP {
	var neighbors []isis.ISNeighbor
	var prefixes []isis.IPPrefix
	prefixes = append(prefixes, isis.IPPrefix{Metric: 0, Addr: info.Loopback, Length: 32})
	for _, ifc := range info.Interfaces {
		link, ok := net.LinkByID(ifc.Link)
		if !ok {
			continue
		}
		peer, ok := link.Other(info.Name)
		if !ok {
			continue
		}
		peerRouter := net.Routers[peer.Host]
		if peerRouter == nil {
			continue
		}
		if !adjDown[link.ID] {
			nbr := isis.ISNeighbor{
				System: peerRouter.SystemID,
				Metric: link.Metric,
			}
			if linkIDs {
				nbr.SetLinkIDs(link.Subnet, link.Subnet)
			}
			neighbors = append(neighbors, nbr)
		}
		if !physDown[link.ID] {
			prefixes = append(prefixes, isis.IPPrefix{
				Metric: link.Metric,
				Addr:   link.Subnet,
				Length: 31,
			})
		}
	}
	return isis.NewLSP(info.SystemID, seq, info.Name, neighbors, prefixes)
}

// hubNet is a hub with spokes enough that its neighbor list (11 octets
// an entry, 19 with link IDs) cannot fit one TLV, two of them parallel
// links to the same spoke.
func hubNet(t testing.TB, spokes int) *topo.Network {
	t.Helper()
	n := topo.NewNetwork()
	add := func(name string, idx int) {
		if err := n.AddRouter(&topo.Router{Name: name, Class: topo.Core, SystemID: topo.SystemIDFromIndex(idx), Loopback: 10<<24 | uint32(idx)}); err != nil {
			t.Fatal(err)
		}
	}
	add("hub", 1)
	for i := 0; i < spokes; i++ {
		spoke := fmt.Sprintf("spoke-%02d", i)
		add(spoke, 2+i)
		for p := 0; p < 1+i/(spokes-1); p++ { // the last spoke gets a parallel link
			if _, err := n.AddLink(
				topo.Endpoint{Host: "hub", Port: fmt.Sprintf("Te0/%d/0/%d", p, i)},
				topo.Endpoint{Host: spoke, Port: fmt.Sprintf("Te0/0/0/%d", p)},
				137<<24|uint32(2*(2*i+p)), 10+uint32(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return n
}

// TestLSPPathsMatchReference drives three views of one router through
// 1,500 seeded adjacency/physical state changes: EncodeLSP (what the
// simulator calls), OriginateLSP().Encode() (what everyone else
// calls), and the map-based original. All three must emit the same
// wire bytes at every step, with and without link identifiers, on a
// neighbor list that splits across TLVs; and an LSP handed out earlier
// must not change when the router originates again.
func TestLSPPathsMatchReference(t *testing.T) {
	for _, linkIDs := range []bool{false, true} {
		net := hubNet(t, 30)
		info := net.Routers["hub"]
		hot, cold := New(net, info, syslog.DialectIOSXR), New(net, info, syslog.DialectIOSXR)
		hot.LinkIDCapable, cold.LinkIDCapable = linkIDs, linkIDs
		adjDown, physDown := map[topo.LinkID]bool{}, map[topo.LinkID]bool{}
		rng := rand.New(rand.NewSource(22))
		var held *isis.LSP
		var heldWire []byte
		split := false
		for step := 1; step <= 1500; step++ {
			for flips := rng.Intn(4); flips > 0; flips-- {
				link := net.Links[rng.Intn(len(net.Links))].ID
				up := rng.Intn(2) == 0
				if rng.Intn(2) == 0 {
					hot.Interface(link).SetAdjacency(up)
					cold.SetAdjacency(link, up)
					adjDown[link] = !up
				} else {
					hot.Interface(link).SetPhysical(up)
					cold.Interface(link).SetPhysical(up)
					physDown[link] = !up
				}
			}
			want, err := refOriginate(net, info, uint32(step), linkIDs, adjDown, physDown).Encode()
			if err != nil {
				t.Fatal(err)
			}
			got, err := hot.EncodeLSP()
			if err != nil {
				t.Fatal(err)
			}
			lsp := cold.OriginateLSP()
			owned, err := lsp.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("linkIDs=%v step %d: EncodeLSP differs from the reference\n got %x\nwant %x", linkIDs, step, got, want)
			}
			if !bytes.Equal(owned, want) {
				t.Fatalf("linkIDs=%v step %d: OriginateLSP().Encode() differs from the reference", linkIDs, step)
			}
			if held != nil {
				again, err := held.Encode()
				if err != nil || !bytes.Equal(again, heldWire) {
					t.Fatalf("linkIDs=%v step %d: an LSP handed out earlier changed under its holder", linkIDs, step)
				}
			}
			if step%50 == 1 {
				held, heldWire = lsp, owned
			}
			split = split || len(lsp.Neighbors)*11 > 255
		}
		if !split {
			t.Fatal("the neighbor list never outgrew one TLV")
		}
	}
}

// TestDeliverLSPAllocBudget pins what an LSP costs the simulator's
// deliverLSP on the device side: originate plus encode on a warm
// router is one allocation, the wire bytes the capture keeps — link
// identifiers or not, since the sub-TLVs are built once at New.
func TestDeliverLSPAllocBudget(t *testing.T) {
	for _, linkIDs := range []bool{false, true} {
		net := hubNet(t, 30)
		d := New(net, net.Routers["hub"], syslog.DialectIOSXR)
		d.LinkIDCapable = linkIDs
		ifc := d.Interface(net.Links[3].ID)
		up := false
		step := func() {
			ifc.SetAdjacency(up)
			up = !up
			if _, err := d.EncodeLSP(); err != nil {
				t.Fatal(err)
			}
		}
		step()
		step()
		if avg := testing.AllocsPerRun(200, step); avg != 1 {
			t.Errorf("linkIDs=%v: a warm EncodeLSP allocates %.1f times, budget is exactly 1 (the wire bytes)", linkIDs, avg)
		}
	}
}
