package device

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"netfail/internal/syslog"
	"netfail/internal/topo"
)

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

// TestLSPPathsMatchReference drives two views of one router through
// 1,500 seeded adjacency/physical state changes: EncodeLSP (what the
// simulator calls) and fill().AppendEncode(nil) must emit the same wire bytes
// at every step, with and without link identifiers, on a neighbor list
// that splits across TLVs. The map-based origination both were once
// compared with is retired: each row of the mutation
// table it caught (internal/lint/mutation_test.go, the O rows) fails a
// test of this package or the simulator's pinned captures without it.
func TestLSPPathsMatchReference(t *testing.T) {
	for _, linkIDs := range []bool{false, true} {
		net := hubNet(t, 30)
		info := net.Routers["hub"]
		hot, cold := New(net, info, syslog.DialectIOSXR), New(net, info, syslog.DialectIOSXR)
		hot.LinkIDCapable, cold.LinkIDCapable = linkIDs, linkIDs
		rng := rand.New(rand.NewSource(22))
		split := false
		for step := 1; step <= 1500; step++ {
			for flips := rng.Intn(4); flips > 0; flips-- {
				link := net.Links[rng.Intn(len(net.Links))].ID
				up := rng.Intn(2) == 0
				if rng.Intn(2) == 0 {
					hot.Interface(link).SetAdjacency(up)
					cold.Interface(link).SetAdjacency(up)
				} else {
					hot.Interface(link).SetPhysical(up)
					cold.Interface(link).SetPhysical(up)
				}
			}
			got, err := hot.EncodeLSP()
			if err != nil {
				t.Fatal(err)
			}
			lsp := cold.fill()
			owned, err := lsp.AppendEncode(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, owned) {
				t.Fatalf("linkIDs=%v step %d: EncodeLSP differs from fill().AppendEncode(nil)\n got %x\nwant %x", linkIDs, step, got, owned)
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
