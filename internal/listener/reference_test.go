package listener

import (
	"fmt"
	"time"

	"netfail/internal/isis"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// This file preserves the listener that the integer-key, delta-driven
// rewrite retired: string advertisement keys in one namespace, a
// map[string]int per fragment, the originator's aggregate copied into
// prev on every LSP, and every interface of the originator examined
// every time. It exists only as the reference implementation for the
// differential tests in equivalence_test.go — do not modernize it; its
// value is that it is the old code. The only edits are the ref prefix
// on the names and the string keys, which isis no longer renders,
// written out here in the fmt form they were pinned to.

// refNeighborKey is the retired isis.ISNeighbor.Key.
func refNeighborKey(n isis.ISNeighbor) string {
	if local, _, ok := n.LinkIDs(); ok {
		return fmt.Sprintf("%s.%02x#%08x", n.System, n.Pseudonode, local)
	}
	return fmt.Sprintf("%s.%02x", n.System, n.Pseudonode)
}

// refPrefixKeys is the retired isis.LSP.PrefixKeys over the retired
// isis.IPPrefix.Key.
func refPrefixKeys(lsp *isis.LSP) map[string]bool {
	set := make(map[string]bool, len(lsp.Prefixes))
	for _, p := range lsp.Prefixes {
		set[fmt.Sprintf("%s/%d", topo.FormatIPv4(p.Addr), p.Length)] = true
	}
	return set
}

// refListener reconstructs link state from a stream of LSPs.
type refListener struct {
	net *topo.Network
	db  *isis.Database

	// Per-fragment advertised content (ISO 10589 §7.3.7: a
	// router's advertisement set is the union over its fragments)
	// and the per-originator aggregate the diffing reads.
	fragAdv map[isis.LSPID]map[string]int
	adv     map[topo.SystemID]map[string]int
	heard   map[topo.SystemID]bool

	// Derived per-link state.
	adjUp map[topo.LinkID]bool
	ipUp  map[topo.LinkID]bool
	// multiCount tracks advertised-entry counts for multi-link
	// adjacencies, only to account for skipped changes.
	multiCount map[topo.AdjacencyKey]int

	hostnames map[topo.SystemID]string

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

// newRef creates a reference listener resolving against the given (typically
// mined) topology.
func newRef(net *topo.Network) *refListener {
	return &refListener{
		net:        net,
		db:         isis.NewDatabase(),
		fragAdv:    make(map[isis.LSPID]map[string]int),
		adv:        make(map[topo.SystemID]map[string]int),
		heard:      make(map[topo.SystemID]bool),
		adjUp:      make(map[topo.LinkID]bool),
		ipUp:       make(map[topo.LinkID]bool),
		multiCount: make(map[topo.AdjacencyKey]int),
		hostnames:  make(map[topo.SystemID]string),
	}
}

// Process ingests one captured PDU (wire bytes) received at the
// given time. Non-LSP PDUs (hellos, CSNPs, PSNPs — all present on a
// live circuit) are counted and skipped; decode failures are counted
// and returned; stale LSPs (not newer than the database copy) are
// counted and ignored.
func (l *refListener) Process(at time.Time, data []byte) error {
	if typ, err := isis.PeekType(data); err == nil && typ != isis.TypeLSPL2 {
		l.otherPDUs++
		return nil
	}
	var lsp isis.LSP
	if err := lsp.DecodeFromBytes(data); err != nil {
		l.decodeErrors++
		return fmt.Errorf("listener: %w", err)
	}
	l.lspCount++
	if !l.db.Install(&lsp) {
		l.staleLSPs++
		return nil
	}
	orig := lsp.ID.System
	if lsp.Hostname != "" {
		l.hostnames[orig] = lsp.Hostname
	}
	router, known := l.net.RouterByID(orig)
	if !known {
		l.unknownOrig++
		return nil
	}

	// This fragment's advertised content: neighbor keys and prefix
	// keys share one namespace (dotted system IDs cannot collide
	// with dotted-quad prefixes).
	newFrag := make(map[string]int, len(lsp.Neighbors)+len(lsp.Prefixes))
	for _, n := range lsp.Neighbors {
		newFrag[refNeighborKey(n)]++
	}
	for pfx := range refPrefixKeys(&lsp) {
		newFrag[pfx]++
	}

	// Snapshot the originator's aggregate, then apply the fragment
	// delta: union semantics across fragments.
	agg := l.adv[orig]
	if agg == nil {
		agg = make(map[string]int)
		l.adv[orig] = agg
	}
	prev := make(map[string]int, len(agg))
	for k, v := range agg {
		prev[k] = v
	}
	for k, v := range l.fragAdv[lsp.ID] {
		agg[k] -= v
		if agg[k] <= 0 {
			delete(agg, k)
		}
	}
	for k, v := range newFrag {
		agg[k] += v
	}
	l.fragAdv[lsp.ID] = newFrag
	first := !l.heard[orig]
	l.heard[orig] = true

	for _, ifc := range router.Interfaces {
		link, ok := l.net.LinkByID(ifc.Link)
		if !ok {
			continue
		}
		if first {
			l.baselineLink(link)
		} else {
			l.diffLink(at, router.Name, link, prev, agg)
		}
	}
	return nil
}

// baselineLink establishes initial state for a link once both ends
// have been heard: up if either end currently advertises it.
func (l *refListener) baselineLink(link *topo.Link) {
	ra := l.net.Routers[link.A.Host]
	rb := l.net.Routers[link.B.Host]
	if ra == nil || rb == nil || !l.heard[ra.SystemID] || !l.heard[rb.SystemID] {
		return
	}
	plainAdv := l.adv[ra.SystemID][refPlainKey(rb.SystemID)] > 0 ||
		l.adv[rb.SystemID][refPlainKey(ra.SystemID)] > 0
	idAdv := l.adv[ra.SystemID][refLinkIDKey(rb.SystemID, link.Subnet)] > 0 ||
		l.adv[rb.SystemID][refLinkIDKey(ra.SystemID, link.Subnet)] > 0
	switch {
	case !l.net.IsMultiLink(link.ID):
		l.adjUp[link.ID] = plainAdv || idAdv
	case idAdv:
		// RFC 5307 link identifiers give even parallel links
		// per-link baseline state.
		l.adjUp[link.ID] = true
	default:
		l.multiCount[link.Adjacency] = l.adv[ra.SystemID][refPlainKey(rb.SystemID)] +
			l.adv[rb.SystemID][refPlainKey(ra.SystemID)]
	}
	pfx := refPrefixKey(link.Subnet)
	l.ipUp[link.ID] = l.adv[ra.SystemID][pfx] > 0 || l.adv[rb.SystemID][pfx] > 0
}

// diffLink applies one originator's advertisement changes to a link,
// following the paper's rule (§3.4): a "down" transition occurs when
// a previously listed adjacency or IP space is no longer advertised,
// an "up" transition when it is re-advertised. The second endpoint's
// matching withdrawal or re-advertisement changes nothing because the
// link is already in that state.
func (l *refListener) diffLink(at time.Time, reporter string, link *topo.Link, prev, cur map[string]int) {
	ra := l.net.Routers[link.A.Host]
	rb := l.net.Routers[link.B.Host]
	if ra == nil || rb == nil || !l.heard[ra.SystemID] || !l.heard[rb.SystemID] {
		return
	}
	peer := ra
	if reporter == ra.Name {
		peer = rb
	}
	key := refPlainKey(peer.SystemID)
	// RFC 5307 link identifiers, when advertised, name the circuit
	// and make parallel adjacencies attributable to physical links.
	extKey := refLinkIDKey(peer.SystemID, link.Subnet)

	switch {
	case prev[extKey] > 0 || cur[extKey] > 0:
		prevHas, newHas := prev[extKey] > 0, cur[extKey] > 0
		switch {
		case prevHas && !newHas:
			l.setState(at, reporter, link, l.adjUp, false, trace.KindISReach, &l.isTransitions)
		case !prevHas && newHas:
			l.setState(at, reporter, link, l.adjUp, true, trace.KindISReach, &l.isTransitions)
		}
	case l.net.IsMultiLink(link.ID):
		// Parallel links share one adjacency: without link-ID
		// sub-TLVs the change cannot be attributed to a physical
		// link (§3.4). Count and skip.
		if prev[key] != cur[key] {
			l.multiLinkSkips++
			l.multiCount[link.Adjacency] += cur[key] - prev[key]
		}
	default:
		prevHas, newHas := prev[key] > 0, cur[key] > 0
		switch {
		case prevHas && !newHas:
			l.setState(at, reporter, link, l.adjUp, false, trace.KindISReach, &l.isTransitions)
		case !prevHas && newHas:
			l.setState(at, reporter, link, l.adjUp, true, trace.KindISReach, &l.isTransitions)
		}
	}

	pfx := refPrefixKey(link.Subnet)
	prevHas, newHas := prev[pfx] > 0, cur[pfx] > 0
	switch {
	case prevHas && !newHas:
		l.setState(at, reporter, link, l.ipUp, false, trace.KindIPReach, &l.ipTransitions)
	case !prevHas && newHas:
		l.setState(at, reporter, link, l.ipUp, true, trace.KindIPReach, &l.ipTransitions)
	}
}

// setState moves a link's derived state, emitting a transition if it
// actually changed.
func (l *refListener) setState(at time.Time, reporter string, link *topo.Link, states map[topo.LinkID]bool, up bool, kind trace.Kind, out *[]trace.Transition) {
	if prev, seen := states[link.ID]; seen && prev == up {
		return
	}
	states[link.ID] = up
	dir := trace.Down
	if up {
		dir = trace.Up
	}
	*out = append(*out, trace.Transition{
		Time:     at,
		Link:     link.ID,
		Dir:      dir,
		Kind:     kind,
		Reporter: reporter,
	})
}

func refPlainKey(id topo.SystemID) string {
	return fmt.Sprintf("%s.%02x", id, 0)
}

// refLinkIDKey matches refNeighborKey for entries carrying RFC 5307
// link identifiers (the simulator uses the link's /31 as circuit ID).
func refLinkIDKey(id topo.SystemID, circuit uint32) string {
	return fmt.Sprintf("%s.%02x#%08x", id, 0, circuit)
}

func refPrefixKey(subnet uint32) string {
	return fmt.Sprintf("%s/31", topo.FormatIPv4(subnet))
}

func (l *refListener) Results() *Result {
	hostnames := make(map[topo.SystemID]string, len(l.hostnames))
	for id, h := range l.hostnames {
		hostnames[id] = h
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
