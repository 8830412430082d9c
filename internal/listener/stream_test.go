package listener

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"netfail/internal/capture"
	"netfail/internal/config"
	"netfail/internal/faultinject"
	"netfail/internal/isis"
	"netfail/internal/netsim"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// Random PDU streams and whole campaigns, checked by properties that
// need no second listener: the listener refuses as stale exactly the
// LSPs that ISO 10589's ordering, tallied here on fresh decodes,
// refuses; each transition is stamped with the time, kind and
// originator of the PDU that emitted it, on one of the originator's
// links; each link's transitions of one kind alternate in direction;
// and the counters and the hostname map are what the tally's verdicts
// add up to. The string-keyed listener these streams were once
// compared with is retired: each row of the mutation table it caught
// (internal/lint/mutation_test.go, the N rows) fails a test of this
// package without it.

// replay feeds one PDU stream to a listener and tallies what its
// counters and hostname map must read. accepted holds one more than
// the rank of each LSP ID's accepted copy, so an unseen ID reads 0.
type replay struct {
	l                                       *Listener
	accepted                                map[isis.LSPID]uint64
	n, nIS, nIP                             int
	lsps, decodeErrs, stale, unknown, other int
	hostnames                               map[topo.SystemID]string
}

// rank orders an LSP ID's issues (ISO 10589 §7.3.16): by sequence
// number, and at an equal one a purge above a live copy.
func rank(lsp *isis.LSP) uint64 {
	if lsp.Lifetime == 0 {
		return uint64(lsp.Sequence)<<1 | 1
	}
	return uint64(lsp.Sequence) << 1
}

func newReplay(net *topo.Network) *replay {
	return &replay{l: New(net), accepted: map[isis.LSPID]uint64{}, hostnames: map[topo.SystemID]string{}}
}

func (r *replay) process(t *testing.T, at time.Time, data []byte) {
	t.Helper()
	r.n++
	err := r.l.Process(at, data)
	var origin *topo.Router
	lsp := new(isis.LSP)
	if typ, perr := isis.PeekType(data); perr == nil && typ != isis.TypeLSPL2 {
		r.other++
	} else if derr := lsp.DecodeFromBytes(data); (derr == nil) != (err == nil) {
		t.Fatalf("PDU %d: listener error %v, decode error %v", r.n, err, derr)
	} else if derr != nil {
		r.decodeErrs++
	} else if r.lsps++; rank(lsp) < r.accepted[lsp.ID] {
		r.stale++
	} else {
		r.accepted[lsp.ID] = rank(lsp) + 1
		if lsp.Hostname != "" {
			r.hostnames[lsp.ID.System] = lsp.Hostname
		}
		if origin, _ = r.l.net.RouterByID(lsp.ID.System); origin == nil {
			r.unknown++
		}
	}
	r.fresh(t, at, origin, r.l.isTransitions, &r.nIS, trace.KindISReach)
	r.fresh(t, at, origin, r.l.ipTransitions, &r.nIP, trace.KindIPReach)
}

// fresh holds the transitions the PDU just emitted to its time, the
// stream's kind and the LSP's originator, which must own the link.
func (r *replay) fresh(t *testing.T, at time.Time, origin *topo.Router, ts []trace.Transition, seen *int, kind trace.Kind) {
	t.Helper()
	for _, tr := range ts[*seen:] {
		if origin == nil || !owns(origin, tr.Link) || !tr.Time.Equal(at) || tr.Kind != kind || tr.Reporter != origin.Name {
			t.Fatalf("PDU %d at %v (from %v): emitted %+v", r.n, at, origin, tr)
		}
	}
	*seen = len(ts)
}

func owns(r *topo.Router, link topo.LinkID) bool {
	for _, ifc := range r.Interfaces {
		if ifc.Link == link {
			return true
		}
	}
	return false
}

// check holds the transition streams to alternation, and the counters
// and hostnames to the tallies.
func (r *replay) check(t *testing.T) {
	t.Helper()
	res := r.l.Results()
	for _, ts := range [][]trace.Transition{res.ISTransitions, res.IPTransitions} {
		last := map[topo.LinkID]trace.Direction{}
		for i, tr := range ts {
			if d, ok := last[tr.Link]; ok && d == tr.Dir {
				t.Fatalf("after %d PDUs: transition %d repeats %v on %s", r.n, i, tr.Dir, tr.Link)
			}
			last[tr.Link] = tr.Dir
		}
	}
	want := Result{ISTransitions: res.ISTransitions, IPTransitions: res.IPTransitions, Hostnames: r.hostnames,
		LSPCount: r.lsps, DecodeErrors: r.decodeErrs, StaleLSPs: r.stale, UnknownOriginators: r.unknown,
		OtherPDUs: r.other, MultiLinkSkips: res.MultiLinkSkips}
	if !reflect.DeepEqual(*res, want) || r.l.LSPCount() != r.lsps {
		t.Fatalf("after %d PDUs: counters or hostnames differ from the tallies\n got %+v\nwant %+v", r.n, *res, want)
	}
}

// streamGen draws a small topology and then PDUs over it, aiming at
// the cases where string keys and a full per-LSP walk could differ
// from integer keys and a delta: content spread over and moved between
// fragments and pseudonodes, repeated entries, parallel links with
// link identifiers on both, one or neither end, self-loops, refreshes,
// reorderings, purges, stale copies, strangers, non-LSP PDUs and
// damaged payloads.
type streamGen struct {
	rng     *rand.Rand
	net     *topo.Network
	routers []*topo.Router
	capable map[string]bool
	// last is each LSP ID's latest issue, ids the IDs in order of
	// first issue (so draws do not depend on map order).
	last map[isis.LSPID]*isis.LSP
	ids  []isis.LSPID
	now  time.Time
}

func newStreamGen(t *testing.T, seed int64) *streamGen {
	t.Helper()
	g := &streamGen{
		rng:     rand.New(rand.NewSource(seed)),
		net:     topo.NewNetwork(),
		capable: make(map[string]bool),
		last:    make(map[isis.LSPID]*isis.LSP),
		now:     time.Date(2011, time.January, 1, 0, 0, 0, 0, time.UTC),
	}
	nRouters := 3 + g.rng.Intn(5)
	for i := 0; i < nRouters; i++ {
		r := &topo.Router{Name: fmt.Sprintf("r%d", i), SystemID: topo.SystemIDFromIndex(i + 1), Loopback: 10<<24 | uint32(i+1)}
		if g.rng.Intn(3) == 0 {
			r.Class = topo.CPE
		}
		if err := g.net.AddRouter(r); err != nil {
			t.Fatal(err)
		}
		g.routers = append(g.routers, r)
		g.capable[r.Name] = g.rng.Intn(3) == 0
	}
	nLinks := nRouters + g.rng.Intn(nRouters+1)
	for i := 0; i < nLinks; i++ {
		a, b := g.rng.Intn(nRouters), g.rng.Intn(nRouters)
		if a == b && g.rng.Intn(4) != 0 {
			b = (a + 1) % nRouters
		}
		if len(g.net.Links) > 0 && g.rng.Intn(4) == 0 {
			// A parallel link: the same pair again.
			prev := g.net.Links[g.rng.Intn(len(g.net.Links))]
			a, b = g.index(prev.A.Host), g.index(prev.B.Host)
		}
		ea := topo.Endpoint{Host: g.routers[a].Name, Port: fmt.Sprintf("p%da", i)}
		eb := topo.Endpoint{Host: g.routers[b].Name, Port: fmt.Sprintf("p%db", i)}
		if _, err := g.net.AddLink(ea, eb, uint32(137<<24|i*2), 10); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func (g *streamGen) index(host string) int {
	for i, r := range g.routers {
		if r.Name == host {
			return i
		}
	}
	panic("unknown host " + host)
}

func (g *streamGen) coin(percent int) bool { return g.rng.Intn(100) < percent }

// content draws what one fragment of r's LSP advertises.
func (g *streamGen) content(r *topo.Router) (neighbors []isis.ISNeighbor, prefixes []isis.IPPrefix) {
	share := 30 + g.rng.Intn(70)
	for _, ifc := range r.Interfaces {
		link, _ := g.net.LinkByID(ifc.Link)
		other, _ := link.Other(r.Name)
		if g.coin(share) {
			n := isis.ISNeighbor{System: g.net.Routers[other.Host].SystemID, Metric: link.Metric}
			if g.coin(8) {
				n.Pseudonode = 1
			}
			// A capable router sends link identifiers, an incapable one
			// does not — most of the time.
			if g.capable[r.Name] != g.coin(10) {
				local := link.Subnet
				if g.coin(8) {
					local = uint32(g.rng.Intn(8))
				}
				n.SetLinkIDs(local, local+1)
			}
			neighbors = append(neighbors, n)
			if g.coin(12) {
				neighbors = append(neighbors, n)
			}
		}
		if g.coin(share) {
			p := isis.IPPrefix{Addr: link.Subnet, Length: 31, Metric: link.Metric}
			if g.coin(8) {
				p.Length = 30
			}
			prefixes = append(prefixes, p)
			for g.coin(12) {
				prefixes = append(prefixes, p)
			}
		}
	}
	if g.coin(20) {
		neighbors = append(neighbors, isis.ISNeighbor{System: topo.SystemIDFromIndex(500 + g.rng.Intn(3)), Metric: 10})
	}
	if g.coin(50) {
		prefixes = append(prefixes, isis.IPPrefix{Addr: r.Loopback, Length: 32})
	}
	if g.coin(30) {
		g.rng.Shuffle(len(neighbors), func(i, j int) { neighbors[i], neighbors[j] = neighbors[j], neighbors[i] })
		g.rng.Shuffle(len(prefixes), func(i, j int) { prefixes[i], prefixes[j] = prefixes[j], prefixes[i] })
	}
	return neighbors, prefixes
}

// remember records lsp as the latest issue of its ID.
func (g *streamGen) remember(lsp *isis.LSP) *isis.LSP {
	if g.last[lsp.ID] == nil {
		g.ids = append(g.ids, lsp.ID)
	}
	g.last[lsp.ID] = lsp
	return lsp
}

// reissue copies a remembered LSP under a new sequence number.
func (g *streamGen) reissue(l *isis.LSP, seq uint32) *isis.LSP {
	c := *l
	c.Sequence = seq
	return g.remember(&c)
}

// next draws one PDU.
func (g *streamGen) next(t *testing.T) []byte {
	t.Helper()
	g.now = g.now.Add(time.Duration(1+g.rng.Intn(5000)) * time.Millisecond)
	var old *isis.LSP
	if len(g.ids) > 0 {
		old = g.last[g.ids[g.rng.Intn(len(g.ids))]]
	}
	switch roll := g.rng.Intn(100); {
	case roll < 12 && old != nil: // refresh: same content, next sequence
		return encode(t, g.reissue(old, old.Sequence+1))
	case roll < 18 && old != nil: // stale: the stored sequence or an older one
		c := *old
		c.Sequence -= uint32(g.rng.Intn(2))
		return encode(t, &c)
	case roll < 24 && old != nil: // purge at the stored or the next sequence
		purge := g.reissue(old, old.Sequence+uint32(g.rng.Intn(2)))
		purge.Lifetime = 0
		if g.coin(70) {
			purge.Neighbors, purge.Prefixes = nil, nil
		}
		return encode(t, purge)
	case roll < 27:
		return helloHeader
	case roll < 30:
		return csnpHeader
	case roll < 34: // a stranger
		return encode(t, isis.NewLSP(topo.SystemIDFromIndex(900+g.rng.Intn(2)), uint32(g.rng.Intn(9)), "ghost", nil,
			[]isis.IPPrefix{{Addr: g.net.Links[0].Subnet, Length: 31}}))
	}
	r := g.routers[g.rng.Intn(len(g.routers))]
	id := isis.LSPID{System: r.SystemID, Fragment: uint8(g.rng.Intn(3))}
	if g.coin(10) {
		id.Pseudonode = 1
	}
	seq := uint32(1)
	if prev := g.last[id]; prev != nil {
		seq = prev.Sequence + 1
	}
	neighbors, prefixes := g.content(r)
	lsp := isis.NewLSP(r.SystemID, seq, r.Name, neighbors, prefixes)
	lsp.ID = id
	switch {
	case g.coin(10):
		lsp.Hostname = ""
	case g.coin(5):
		lsp.Hostname = r.Name + "-renamed"
	}
	wire := encode(t, g.remember(lsp))
	if g.coin(8) {
		// Damaged in flight: whatever the damage did, both listeners
		// must make the same of it, and the sender's sequence moves on
		// regardless.
		wire, _ = faultinject.CorruptBytes(wire, faultinject.Plan{Seed: g.rng.Int63(), Rate: 0.2})
	}
	return wire
}

func TestMatchesReferenceOnRandomStreams(t *testing.T) {
	streams, pdus := 1200, 160
	if testing.Short() {
		streams = 200
	}
	var transitions, skips, refused int
	for seed := 1; seed <= streams; seed++ {
		g := newStreamGen(t, int64(seed))
		r := newReplay(g.net)
		for i := 0; i < pdus; i++ {
			r.process(t, g.now, g.next(t))
			if i%16 == 15 {
				r.check(t)
			}
		}
		r.check(t)
		if t.Failed() {
			t.Fatalf("stream seed %d", seed)
		}
		res := r.l.Results()
		transitions += len(res.ISTransitions) + len(res.IPTransitions)
		skips += res.MultiLinkSkips
		refused += res.DecodeErrors + res.StaleLSPs + res.UnknownOriginators + res.OtherPDUs
	}
	// The streams must actually reach the paths they are there for.
	if transitions == 0 || skips == 0 || refused == 0 {
		t.Errorf("streams too tame: %d transitions, %d multi-link skips, %d refused PDUs", transitions, skips, refused)
	}
	t.Logf("%d streams x %d PDUs: %d transitions, %d multi-link skips, %d refused", streams, pdus, transitions, skips, refused)
}

func campaignConfig(days int, linkIDs bool) netsim.Config {
	start := time.Date(2011, time.January, 1, 0, 0, 0, 0, time.UTC)
	return netsim.Config{
		Seed:            7,
		Start:           start,
		End:             start.AddDate(0, 0, days),
		ListenerOffline: []trace.Interval{},
		RefreshMode:     netsim.RefreshFull,
		RefreshInterval: 6 * time.Hour,
		EnableLinkIDs:   linkIDs,
	}
}

func mine(t *testing.T, camp *netsim.Campaign) *topo.Network {
	t.Helper()
	mined, err := config.Mine(camp.Archive)
	if err != nil {
		t.Fatal(err)
	}
	return mined.Network
}

// TestMatchesReferenceOnCampaigns replays whole simulated campaigns:
// the CENIC backbone with and without link identifiers, and a
// backbone-plus-pod fabric read back from its sharded capture.
func TestMatchesReferenceOnCampaigns(t *testing.T) {
	for _, linkIDs := range []bool{false, true} {
		t.Run(fmt.Sprintf("cenic/linkids=%v", linkIDs), func(t *testing.T) {
			camp, err := netsim.Run(context.Background(), campaignConfig(45, linkIDs))
			if err != nil {
				t.Fatal(err)
			}
			r := newReplay(mine(t, camp))
			for _, c := range camp.LSPLog {
				r.process(t, c.Time, c.Data)
			}
			r.check(t)
			if res := r.l.Results(); len(res.ISTransitions) == 0 || len(res.IPTransitions) == 0 {
				t.Errorf("campaign produced %d IS and %d IP transitions", len(res.ISTransitions), len(res.IPTransitions))
			}
		})
	}
	t.Run("fabric", func(t *testing.T) {
		dir := t.TempDir()
		camp, err := netsim.RunShardedToCapture(context.Background(), campaignConfig(10, false), topo.DefaultFabricSpec(1), dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		man, err := capture.ReadManifestDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := newReplay(mine(t, camp))
		for _, sh := range man.Shards {
			sr, err := capture.OpenSegment(filepath.Join(dir, sh.Name, capture.LSPSegment))
			if err != nil {
				t.Fatal(err)
			}
			for {
				ts, rec, err := sr.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				r.process(t, time.UnixMilli(ts).UTC(), rec)
			}
			if err := sr.Close(); err != nil {
				t.Fatal(err)
			}
		}
		r.check(t)
		if res := r.l.Results(); len(res.ISTransitions) == 0 || res.LSPCount < 1000 {
			t.Errorf("fabric campaign: %d LSPs, %d IS transitions", res.LSPCount, len(res.ISTransitions))
		}
	})
}
