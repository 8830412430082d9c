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

// The differential oracle: the listener and the string-keyed reference
// it replaced (reference_test.go) are fed the same PDUs and must agree
// on everything they expose — both transition streams, the hostname
// map, all six counters, which PDUs were refused, and the database.

// pair feeds one PDU stream to both listeners.
type pair struct {
	l   *Listener
	ref *refListener
	n   int
}

func newPair(net *topo.Network) *pair { return &pair{l: New(net), ref: newRef(net)} }

func (p *pair) process(t *testing.T, at time.Time, data []byte) {
	t.Helper()
	p.n++
	err, refErr := p.l.Process(at, data), p.ref.Process(at, data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("PDU %d: listener error %v, reference error %v", p.n, err, refErr)
	}
}

// lspDigest is what a database holds of one LSP, content aside.
type lspDigest struct {
	ID                 isis.LSPID
	Sequence           uint32
	Lifetime, Checksum uint16
}

// digest lists the database's LSPs in LSP ID order.
func digest(db *isis.Database) []lspDigest {
	var out []lspDigest
	for _, l := range db.Snapshot() {
		out = append(out, lspDigest{l.ID, l.Sequence, l.Lifetime, l.Checksum})
	}
	return out
}

func (p *pair) compare(t *testing.T) {
	t.Helper()
	got, want := p.l.Results(), p.ref.Results()
	if !reflect.DeepEqual(got.ISTransitions, want.ISTransitions) {
		t.Fatalf("after %d PDUs: IS transitions differ\n got %v\nwant %v", p.n, got.ISTransitions, want.ISTransitions)
	}
	if !reflect.DeepEqual(got.IPTransitions, want.IPTransitions) {
		t.Fatalf("after %d PDUs: IP transitions differ\n got %v\nwant %v", p.n, got.IPTransitions, want.IPTransitions)
	}
	if !reflect.DeepEqual(got.Hostnames, want.Hostnames) {
		t.Fatalf("after %d PDUs: hostnames differ\n got %v\nwant %v", p.n, got.Hostnames, want.Hostnames)
	}
	got.ISTransitions, got.IPTransitions, got.Hostnames = nil, nil, nil
	want.ISTransitions, want.IPTransitions, want.Hostnames = nil, nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after %d PDUs: counters differ\n got %+v\nwant %+v", p.n, *got, *want)
	}
	if g, w := digest(p.l.Database()), digest(p.ref.db); !reflect.DeepEqual(g, w) {
		t.Fatalf("after %d PDUs: database digests differ\n got %v\nwant %v", p.n, g, w)
	}
	if p.l.LSPCount() != want.LSPCount {
		t.Fatalf("LSPCount() = %d, want %d", p.l.LSPCount(), want.LSPCount)
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
		p := newPair(g.net)
		for i := 0; i < pdus; i++ {
			p.process(t, g.now, g.next(t))
			if i%16 == 15 {
				p.compare(t)
			}
		}
		p.compare(t)
		if t.Failed() {
			t.Fatalf("stream seed %d", seed)
		}
		res := p.l.Results()
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
			p := newPair(mine(t, camp))
			for _, c := range camp.LSPLog {
				p.process(t, c.Time, c.Data)
			}
			p.compare(t)
			if res := p.l.Results(); len(res.ISTransitions) == 0 || len(res.IPTransitions) == 0 {
				t.Errorf("campaign produced %d IS and %d IP transitions", len(res.ISTransitions), len(res.IPTransitions))
			}
			sameRoutes(t, p)
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
		p := newPair(mine(t, camp))
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
				p.process(t, time.UnixMilli(ts).UTC(), rec)
			}
			if err := sr.Close(); err != nil {
				t.Fatal(err)
			}
		}
		p.compare(t)
		if res := p.l.Results(); len(res.ISTransitions) == 0 || res.LSPCount < 1000 {
			t.Errorf("fabric campaign: %d LSPs, %d IS transitions", res.LSPCount, len(res.ISTransitions))
		}
	})
}

// sameRoutes checks what examples/routes does with the database after
// a replay: the listener stores recycled LSPs, the reference fresh
// ones, and SPF over either must reach the same systems at the same
// cost (next hops among equal-cost paths follow map order in RunSPF).
func sameRoutes(t *testing.T, p *pair) {
	t.Helper()
	costs := func(db *isis.Database, src topo.SystemID) map[topo.SystemID]uint32 {
		m := make(map[topo.SystemID]uint32)
		for dest, r := range isis.RunSPF(db, src).Routes {
			m[dest] = r.Metric
		}
		return m
	}
	for _, name := range p.l.net.RouterNames[:3] {
		src := p.l.net.Routers[name].SystemID
		got, want := costs(p.l.Database(), src), costs(p.ref.db, src)
		if len(want) == 0 {
			t.Errorf("SPF from %s reaches nothing", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("SPF from %s differs between listener and reference database\n got %v\nwant %v", name, got, want)
		}
	}
}
