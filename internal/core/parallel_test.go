package core

// Worker-count determinism for the extraction stage: the two streams'
// merges run as concurrent stages above one worker and must reproduce
// the sequential extraction exactly, counters included.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"netfail/internal/syslog"
	"netfail/internal/topo"
)

// meshNet builds a core mesh: fifteen links between six routers.
func meshNet(t *testing.T) *topo.Network {
	t.Helper()
	n := topo.NewNetwork()
	const routers = 6
	for i := 0; i < routers; i++ {
		if err := n.AddRouter(&topo.Router{
			Name:     fmt.Sprintf("core-%d", i),
			Class:    topo.Core,
			SystemID: topo.SystemIDFromIndex(i + 1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	subnet := uint32(0)
	for i := 0; i < routers; i++ {
		for j := i + 1; j < routers; j++ {
			subnet += 4
			_, err := n.AddLink(
				topo.Endpoint{Host: fmt.Sprintf("core-%d", i), Port: fmt.Sprintf("Te%d", j)},
				topo.Endpoint{Host: fmt.Sprintf("core-%d", j), Port: fmt.Sprintf("Te%d", i)},
				subnet, 10)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return n
}

// randomAdjStream emits a seeded up/down adjacency chatter over every
// link of the mesh, with some unresolvable noise mixed in so the
// tally counters are exercised too.
func randomAdjStream(rng *rand.Rand, n *topo.Network, count int) []*syslog.Message {
	type pair struct{ host, iface, peer string }
	var pairs []pair
	for _, l := range n.Links {
		pairs = append(pairs,
			pair{l.A.Host, l.A.Port, l.B.Host},
			pair{l.B.Host, l.B.Port, l.A.Host})
	}
	msgs := make([]*syslog.Message, 0, count)
	for i := 0; i < count; i++ {
		sec := 1000 + rng.Intn(50000)
		when := time.Unix(int64(sec), 0).UTC()
		switch rng.Intn(12) {
		case 0: // unknown router
			msgs = append(msgs, msgPtr(syslog.AdjChange(syslog.DialectIOS, "ghost", uint64(i),
				when, "core-0", "Te0", rng.Intn(2) == 0, "test")))
		case 1: // unknown interface
			msgs = append(msgs, msgPtr(syslog.AdjChange(syslog.DialectIOS, "core-0", uint64(i),
				when, "core-1", "Te99", rng.Intn(2) == 0, "test")))
		case 2: // physical-layer message
			p := pairs[rng.Intn(len(pairs))]
			msgs = append(msgs, msgPtr(syslog.LinkUpDown(p.host, uint64(i), when, p.iface, rng.Intn(2) == 0)))
		default:
			p := pairs[rng.Intn(len(pairs))]
			msgs = append(msgs, msgPtr(syslog.AdjChange(syslog.DialectIOS, p.host, uint64(i),
				when, p.peer, p.iface, rng.Intn(2) == 0, "test")))
		}
	}
	return msgs
}

func TestExtractSyslogParallelMatchesSequential(t *testing.T) {
	n := meshNet(t)
	rng := rand.New(rand.NewSource(17))
	msgs := randomAdjStream(rng, n, 2000)
	want := extractSyslog(n, msgs, 60*time.Second, 1)
	for _, workers := range []int{0, 2, 3, 8, 33} {
		got := extractSyslog(n, msgs, 60*time.Second, workers)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers %d: parallel extraction diverges from sequential", workers)
		}
	}
}
