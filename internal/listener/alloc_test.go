package listener

import (
	"fmt"
	"testing"
	"time"

	"netfail/internal/isis"
	"netfail/internal/topo"
)

// Allocation pins for the replay path, companions to
// BenchmarkListenerReplay: a pod spine with thirty neighbors, heard
// together with all of them, then fed LSPs pre-encoded at rising
// sequence numbers.

// hubBed builds the hub-and-thirty-spokes network, baselines every
// router, and returns the hub's neighbor and prefix lists.
func hubBed(t *testing.T) (*Listener, []isis.ISNeighbor, []isis.IPPrefix) {
	t.Helper()
	n := topo.NewNetwork()
	add := func(i int, name string) topo.SystemID {
		r := &topo.Router{Name: name, SystemID: topo.SystemIDFromIndex(i), Loopback: 10<<24 | uint32(i)}
		if err := n.AddRouter(r); err != nil {
			t.Fatal(err)
		}
		return r.SystemID
	}
	add(1, "hub")
	var neighbors []isis.ISNeighbor
	var prefixes []isis.IPPrefix
	l := New(n)
	at := time.Date(2011, time.January, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 30; i++ {
		name := fmt.Sprintf("spoke-%02d", i)
		sys := add(2+i, name)
		subnet := uint32(137<<24 | i*2)
		if _, err := n.AddLink(topo.Endpoint{Host: "hub", Port: fmt.Sprintf("Te%d", i)}, topo.Endpoint{Host: name, Port: "Te0"}, subnet, 10); err != nil {
			t.Fatal(err)
		}
		neighbors = append(neighbors, isis.ISNeighbor{System: sys, Metric: 10})
		prefixes = append(prefixes, isis.IPPrefix{Addr: subnet, Length: 31, Metric: 10})
		spoke := isis.NewLSP(sys, 1, name, []isis.ISNeighbor{{System: topo.SystemIDFromIndex(1), Metric: 10}}, prefixes[i:])
		if err := l.Process(at, encode(t, spoke)); err != nil {
			t.Fatal(err)
		}
	}
	return l, neighbors, prefixes
}

func encode(t *testing.T, lsp *isis.LSP) []byte {
	t.Helper()
	wire, err := lsp.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestRefreshAllocBudget: an LSP that repeats its fragment's content
// under a higher sequence number allocates nothing.
func TestRefreshAllocBudget(t *testing.T) {
	l, neighbors, prefixes := hubBed(t)
	var wires [][]byte
	for seq := uint32(1); seq <= 110; seq++ {
		wires = append(wires, encode(t, isis.NewLSP(topo.SystemIDFromIndex(1), seq, "hub", neighbors, prefixes)))
	}
	at := time.Date(2011, time.January, 2, 0, 0, 0, 0, time.UTC)
	next := 0
	process := func() {
		if err := l.Process(at, wires[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < 4 {
		process()
	}
	if avg := testing.AllocsPerRun(100, process); avg != 0 {
		t.Errorf("a refresh allocates %.2f times, budget is 0", avg)
	}
	if res := l.Results(); res.LSPCount != 30+next || res.StaleLSPs != 0 || len(res.ISTransitions) != 0 {
		t.Errorf("refreshes not processed as such: %+v", res)
	}
}

// TestOneNeighborChangeAllocBudget: withdrawing or re-advertising one
// of thirty neighbors costs at most the transition append, amortized.
func TestOneNeighborChangeAllocBudget(t *testing.T) {
	l, neighbors, prefixes := hubBed(t)
	var wires [][]byte
	for seq := uint32(1); seq <= 110; seq++ {
		adv := neighbors
		if seq%2 == 0 {
			adv = append(append([]isis.ISNeighbor(nil), neighbors[:14]...), neighbors[15:]...)
		}
		wires = append(wires, encode(t, isis.NewLSP(topo.SystemIDFromIndex(1), seq, "hub", adv, prefixes)))
	}
	at := time.Date(2011, time.January, 2, 0, 0, 0, 0, time.UTC)
	next := 0
	process := func() {
		if err := l.Process(at, wires[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < 5 {
		process()
	}
	if avg := testing.AllocsPerRun(100, process); avg > 1 {
		t.Errorf("a one-neighbor change allocates %.2f times, budget is 1", avg)
	}
	if got := l.ISTransitionCount(); got != next-1 {
		t.Errorf("%d transitions from %d alternating LSPs, want %d", got, next, next-1)
	}
}
