// Package listener implements the passive IS-IS listener (the role
// PyRT played in the paper, §3.2): it consumes the LSP capture, keeps
// each router's advertised neighbors and prefixes as isis.AdvKeys,
// fragment by fragment, and emits link state transitions when an LSP
// changes them. A refresh costs one comparison of two key lists;
// otherwise only the links the difference names are examined. System
// IDs are resolved onto the common link namespace via the mined
// configuration topology, once per originator, and the dynamic
// hostname TLV builds the OSI-ID-to-hostname map.
//
// Two transition streams are produced, one per TLV: Extended IS
// Reachability (the field the paper ultimately uses) and Extended IP
// Reachability (kept for the Table 2 comparison). A link's
// IS-reachability state is the conjunction of the two directions'
// advertisements; multi-link adjacencies cannot be differentiated
// without RFC 5305 link IDs and are skipped, as §3.4 requires.
package listener

import (
	"fmt"
	"time"

	"netfail/internal/isis"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// Listener reconstructs link state from a stream of LSPs.
type Listener struct {
	net *topo.Network
	// lsp is what every PDU decodes into; it keeps its hostname table
	// for the listener's lifetime.
	lsp isis.LSP

	origins map[topo.SystemID]*origin
	links   map[topo.LinkID]*linkState // read by resolve only

	// keys is scratch for the keys of the LSP in hand. was and is are
	// its fragment's old and new keys less what the lists share at
	// either end: the originator's count of a key moved by the key's
	// occurrences in is minus those in was.
	keys, was, is []isis.AdvKey

	isTransitions []trace.Transition
	ipTransitions []trace.Transition

	// Diagnostics.
	lspCount       int
	decodeErrors   int
	staleLSPs      int
	unknownOrig    int
	otherPDUs      int
	multiLinkSkips int
}

// origin is what the listener knows of one system ID, whether it has
// originated an LSP or is so far only the far end of a link.
type origin struct {
	sys      topo.SystemID
	router   *topo.Router // nil when the topology has no such system
	hostname string
	heard    bool // set by the first accepted LSP, which resolves ifaces
	// frags holds each fragment's keys as last advertised, in LSP
	// order; the router advertises their union (ISO 10589 §7.3.7).
	frags  []fragment
	ifaces []ifaceRef
}

// fragment is one LSP ID's accepted copy, as much of it as the
// listener diffs and orders by.
type fragment struct {
	pseudonode, number uint8
	seq                uint32
	purged             bool // the accepted copy has zero lifetime
	keys               []isis.AdvKey
}

// newer reports whether lsp supersedes the fragment's accepted copy
// (ISO 10589 §7.3.16): a higher sequence number wins, and at an equal
// one a purge beats a live copy.
func (f *fragment) newer(lsp *isis.LSP) bool {
	if lsp.Sequence != f.seq {
		return lsp.Sequence > f.seq
	}
	return lsp.Lifetime == 0 && !f.purged
}

// ifaceRef is one of an originator's interfaces resolved onto the
// link namespace, with the keys under which the originator advertises
// the link: the peer as a plain neighbor, the peer with the link's /31
// as RFC 5307 link identifier (the simulator's circuit ID), the /31.
type ifaceRef struct {
	link            *topo.Link
	state           *linkState
	peer            *origin
	plain, ext, pfx isis.AdvKey
	multi           bool // the link shares its adjacency with a parallel one
}

// linkState is a link's derived state per TLV: 0 until it is baselined
// or moved, so that its first change always emits, then stateOf.
type linkState struct{ adj, ip int8 }

func stateOf(up bool) int8 {
	if up {
		return 1
	}
	return -1
}

// New creates a listener resolving against the given (typically
// mined) topology.
func New(net *topo.Network) *Listener {
	return &Listener{
		net:     net,
		origins: make(map[topo.SystemID]*origin),
		links:   make(map[topo.LinkID]*linkState),
	}
}

// Process ingests one captured PDU (wire bytes) received at the
// given time and keeps no reference to data. Non-LSP PDUs (hellos,
// CSNPs, PSNPs — all present on a live circuit) are counted and
// skipped; decode failures are counted and returned; stale LSPs (not
// newer than the copy last accepted for their ID) are counted and
// ignored.
func (l *Listener) Process(at time.Time, data []byte) error {
	if typ, err := isis.PeekType(data); err == nil && typ != isis.TypeLSPL2 {
		l.otherPDUs++
		return nil
	}
	lsp := &l.lsp
	if err := lsp.DecodeFromBytes(data); err != nil {
		l.decodeErrors++
		return fmt.Errorf("listener: %w", err)
	}
	l.lspCount++
	o := l.origin(lsp.ID.System)
	f, seen := o.fragment(lsp.ID.Pseudonode, lsp.ID.Fragment)
	if seen && !f.newer(lsp) {
		l.staleLSPs++
		return nil
	}
	f.seq, f.purged = lsp.Sequence, lsp.Lifetime == 0
	if lsp.Hostname != "" {
		o.hostname = lsp.Hostname
	}
	if o.router == nil {
		l.unknownOrig++
		return nil
	}
	first := !o.heard
	if first {
		l.resolve(o)
		o.heard = true
	}

	keys := l.keys[:0]
	for i := range lsp.Neighbors {
		keys = append(keys, lsp.Neighbors[i].AdvKey())
	}
	for _, p := range lsp.Prefixes {
		keys = append(keys, p.AdvKey())
	}
	// Counting is additive, so what the old and the new list share at
	// either end cancels, and a refresh cancels altogether.
	was, is := f.keys, keys
	for len(was) > 0 && len(is) > 0 && was[0] == is[0] {
		was, is = was[1:], is[1:]
	}
	for len(was) > 0 && len(is) > 0 && was[len(was)-1] == is[len(is)-1] {
		was, is = was[:len(was)-1], is[:len(is)-1]
	}
	l.keys, l.was, l.is = keys, was, is
	if len(was)+len(is) == 0 && !first {
		return nil
	}
	// The fragment's old list, which was points into, is the next scratch.
	f.keys, l.keys = keys, f.keys
	for i := range o.ifaces {
		if first {
			baselineLink(o, &o.ifaces[i])
		} else {
			l.diffLink(at, o, &o.ifaces[i])
		}
	}
	return nil
}

// origin returns the record for a system ID, new on first sight.
func (l *Listener) origin(sys topo.SystemID) *origin {
	o := l.origins[sys]
	if o == nil {
		router, _ := l.net.RouterByID(sys)
		o = &origin{sys: sys, router: router}
		l.origins[sys] = o
	}
	return o
}

// resolve maps the originator's interfaces onto links, in interface
// order, leaving out those the topology cannot place.
func (l *Listener) resolve(o *origin) {
	for _, ifc := range o.router.Interfaces {
		link, ok := l.net.LinkByID(ifc.Link)
		if !ok {
			continue
		}
		far, _ := link.Other(o.router.Name)
		peer := l.net.Routers[far.Host]
		if peer == nil {
			continue
		}
		state := l.links[link.ID]
		if state == nil {
			state = new(linkState)
			l.links[link.ID] = state
		}
		o.ifaces = append(o.ifaces, ifaceRef{
			link: link, state: state, peer: l.origin(peer.SystemID),
			plain: isis.AdvKey{System: peer.SystemID, Kind: isis.AdvNeighbor},
			ext:   isis.AdvKey{System: peer.SystemID, Kind: isis.AdvLinkID, Value: link.Subnet},
			pfx:   isis.IPPrefix{Addr: link.Subnet, Length: 31}.AdvKey(),
			multi: l.net.IsMultiLink(link.ID),
		})
	}
}

// fragment returns the originator's stored fragment, new on first
// sight, and whether it was seen before.
func (o *origin) fragment(pseudonode, number uint8) (*fragment, bool) {
	for i := range o.frags {
		if f := &o.frags[i]; f.pseudonode == pseudonode && f.number == number {
			return f, true
		}
	}
	o.frags = append(o.frags, fragment{pseudonode: pseudonode, number: number})
	return &o.frags[len(o.frags)-1], false
}

// occurrences counts key in keys.
func occurrences(keys []isis.AdvKey, key isis.AdvKey) (n int32) {
	for _, k := range keys {
		if k == key {
			n++
		}
	}
	return n
}

// count returns how often the originator's fragments list key. A
// neighbor's count is compared from one LSP to the next, a prefix's
// only ever tested against zero.
func (o *origin) count(key isis.AdvKey) (n int32) {
	for i := range o.frags {
		n += occurrences(o.frags[i].keys, key)
	}
	return n
}

// baselineLink establishes initial state for one of o's links once
// the far end has been heard too: up if either end currently
// advertises it.
func baselineLink(o *origin, r *ifaceRef) {
	if !r.peer.heard {
		return
	}
	back, backExt := r.plain, r.ext // the same keys as the far end holds them, naming o
	back.System, backExt.System = o.sys, o.sys
	plainAdv := o.count(r.plain) > 0 || r.peer.count(back) > 0
	idAdv := o.count(r.ext) > 0 || r.peer.count(backExt) > 0
	switch {
	case !r.multi:
		r.state.adj = stateOf(plainAdv || idAdv)
	case idAdv:
		// RFC 5307 link identifiers give even parallel links
		// per-link baseline state.
		r.state.adj = stateOf(true)
	}
	r.state.ip = stateOf(o.count(r.pfx) > 0 || r.peer.count(r.pfx) > 0)
}

// diffLink applies one originator's advertisement changes to a link,
// following the paper's rule (§3.4): a "down" transition occurs when
// a previously listed adjacency or IP space is no longer advertised,
// an "up" transition when it is re-advertised. The second endpoint's
// matching withdrawal or re-advertisement changes nothing because the
// link is already in that state.
func (l *Listener) diffLink(at time.Time, o *origin, r *ifaceRef) {
	dExt := occurrences(l.is, r.ext) - occurrences(l.was, r.ext)
	dPlain := occurrences(l.is, r.plain) - occurrences(l.was, r.plain)
	dPfx := occurrences(l.is, r.pfx) - occurrences(l.was, r.pfx)
	if (dExt == 0 && dPlain == 0 && dPfx == 0) || !r.peer.heard {
		return
	}
	curExt, curPlain, curPfx := o.count(r.ext), o.count(r.plain), o.count(r.pfx)
	prevExt, prevPlain, prevPfx := curExt-dExt, curPlain-dPlain, curPfx-dPfx
	switch {
	case prevExt > 0 || curExt > 0:
		// Link identifiers, when advertised, name the circuit and make
		// parallel adjacencies attributable to physical links.
		l.setState(at, o, r, &r.state.adj, prevExt > 0, curExt > 0, trace.KindISReach, &l.isTransitions)
	case r.multi:
		// Parallel links share one adjacency: without link-ID
		// sub-TLVs the change cannot be attributed to a physical
		// link (§3.4). Count and skip.
		if dPlain != 0 {
			l.multiLinkSkips++
		}
	default:
		l.setState(at, o, r, &r.state.adj, prevPlain > 0, curPlain > 0, trace.KindISReach, &l.isTransitions)
	}
	l.setState(at, o, r, &r.state.ip, prevPfx > 0, curPfx > 0, trace.KindIPReach, &l.ipTransitions)
}

// setState moves a link's derived state when the originator started
// or stopped advertising it, emitting a transition if the state
// actually changed.
func (l *Listener) setState(at time.Time, o *origin, r *ifaceRef, state *int8, prevHas, newHas bool, kind trace.Kind, out *[]trace.Transition) {
	if prevHas == newHas || *state == stateOf(newHas) {
		return
	}
	*state = stateOf(newHas)
	dir := trace.Down
	if newHas {
		dir = trace.Up
	}
	*out = append(*out, trace.Transition{
		Time:     at,
		Link:     r.link.ID,
		Dir:      dir,
		Kind:     kind,
		Reporter: o.router.Name,
	})
}

// Result is the listener's complete output.
type Result struct {
	// ISTransitions and IPTransitions are the two transition
	// streams, in arrival order.
	ISTransitions []trace.Transition
	IPTransitions []trace.Transition
	// Hostnames maps OSI system IDs to dynamic hostnames.
	Hostnames map[topo.SystemID]string
	// LSPCount is the number of LSPs successfully processed;
	// DecodeErrors, StaleLSPs, UnknownOriginators, OtherPDUs, and
	// MultiLinkSkips account for the rest.
	LSPCount           int
	DecodeErrors       int
	StaleLSPs          int
	UnknownOriginators int
	OtherPDUs          int
	MultiLinkSkips     int
}

// Results returns a snapshot of the listener's output. Every field is
// a defensive copy — the hostname map included, so mutating a result
// cannot corrupt the listener's OSI-ID resolution. A loop that runs
// per PDU reads LSPCount and ISTransitionCount instead.
func (l *Listener) Results() *Result {
	hostnames := make(map[topo.SystemID]string, len(l.origins))
	for id, o := range l.origins {
		if o.hostname != "" {
			hostnames[id] = o.hostname
		}
	}
	return &Result{
		ISTransitions:      append([]trace.Transition(nil), l.isTransitions...),
		IPTransitions:      append([]trace.Transition(nil), l.ipTransitions...),
		Hostnames:          hostnames,
		LSPCount:           l.lspCount,
		DecodeErrors:       l.decodeErrors,
		StaleLSPs:          l.staleLSPs,
		UnknownOriginators: l.unknownOrig,
		OtherPDUs:          l.otherPDUs,
		MultiLinkSkips:     l.multiLinkSkips,
	}
}

// LSPCount returns the number of LSPs successfully processed so far.
func (l *Listener) LSPCount() int { return l.lspCount }

// ISTransitionCount returns the number of IS-reachability transitions
// emitted so far.
func (l *Listener) ISTransitionCount() int { return len(l.isTransitions) }
