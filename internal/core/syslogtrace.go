package core

import (
	"context"
	"slices"
	"sort"
	"time"

	"netfail/internal/obs"
	"netfail/internal/pool"
	"netfail/internal/syslog"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// SyslogTraces is the structured form of a syslog capture: the
// message stream resolved onto links and split into the channels the
// comparison needs.
type SyslogTraces struct {
	// PerRouterAdj has one transition per IS-IS adjacency message,
	// with Reporter naming the sending router — the unit Table 3
	// counts (None/One/Both routers reporting).
	PerRouterAdj []trace.Transition
	// MergedAdj is the per-link state stream: the two routers'
	// reports of one event are collapsed into a single transition,
	// while genuinely repeated transitions (double Down/Up) survive
	// for ambiguity analysis.
	MergedAdj []trace.Transition
	// MergedPhysical is the same merge over %LINK/%LINEPROTO
	// messages.
	MergedPhysical []trace.Transition
	// Unresolved counts messages whose (router, interface) pair did
	// not map to a known link.
	Unresolved int
	// NonLink counts messages of kinds the analysis ignores.
	NonLink int
	// AdjMessages and PhysMessages count resolved messages by class.
	AdjMessages  int
	PhysMessages int
	// Messages counts every message the extraction consumed — the
	// capture size Table 1 reports, carried here so pre-extracted
	// (sharded) captures report it without retaining the messages.
	Messages int
}

// Merge appends o's streams and counters onto st. The sharded capture
// path extracts each topology domain separately and merges in the
// manifest's fixed shard order; because domains are link-disjoint,
// plain concatenation keeps every per-link stream time-sorted, and
// skipping a global re-sort (which would be unstable across
// equal-time entries) is what keeps single-shard captures
// byte-identical to the in-RAM path.
func (st *SyslogTraces) Merge(o *SyslogTraces) {
	st.PerRouterAdj = append(st.PerRouterAdj, o.PerRouterAdj...)
	st.MergedAdj = append(st.MergedAdj, o.MergedAdj...)
	st.MergedPhysical = append(st.MergedPhysical, o.MergedPhysical...)
	st.Unresolved += o.Unresolved
	st.NonLink += o.NonLink
	st.AdjMessages += o.AdjMessages
	st.PhysMessages += o.PhysMessages
	st.Messages += o.Messages
}

// Extractor resolves a syslog stream against one topology, one message
// at a time: Add reads a message's link event, resolves it onto a link
// and appends the transition to its stream; Finish collapses what was
// added into per-link transitions. It owns the (router, interface) →
// link resolver and every scratch buffer, so a long-lived Extractor —
// the driver's shape, the streaming daemon's and the benchmark's —
// allocates nothing per message once its buffers have grown. What it
// retains between Finish calls is resolved transitions, never
// messages. An Extractor is not safe for concurrent use.
type Extractor struct {
	links []topo.LinkID // sorted; the merge state's index space

	// resolver maps "host\x00iface" to the link index, folding the
	// old router-map lookup + linear interface scan + link presence
	// check into one probe. Keys are substrings of one backing string.
	// Topology names never contain NUL, so the separator cannot be
	// forged by a hostile hostname: such a key simply misses, exactly
	// as the two-step lookup would.
	resolver map[string]int32

	adj, phys linkStream // resolved since the last Finish, by class
	keyBuf    []byte

	messages, unresolved, nonLink int
}

// linkStream is one class of resolved transitions in arrival order,
// with the UnixNano and link-index mirrors the merge pass reads, and
// that pass's per-link state.
type linkStream struct {
	t []trace.Transition
	k []int64 // UnixNano mirror of t
	l []int32 // link-index mirror of t

	unsorted bool // some transition arrived before its predecessor's time

	lastEmit []int64 // per link: the last survivor's time and direction
	lastDir  []int8
	seen     []bool

	// Mirrors of the survivors: time, and (link index << 1) | direction,
	// the equal-time tie order.
	outK []int64
	outL []int32
}

// Len, Less and Swap order the stream by time for sort.Stable, keeping
// the mirrors in step.
func (s *linkStream) Len() int           { return len(s.t) }
func (s *linkStream) Less(i, j int) bool { return s.k[i] < s.k[j] }
func (s *linkStream) Swap(i, j int) {
	s.t[i], s.t[j] = s.t[j], s.t[i]
	s.k[i], s.k[j] = s.k[j], s.k[i]
	s.l[i], s.l[j] = s.l[j], s.l[i]
}

func (s *linkStream) add(tr trace.Transition, li int32) {
	k := tr.Time.UnixNano()
	if n := len(s.k); n > 0 && k < s.k[n-1] {
		s.unsorted = true
	}
	s.t = append(s.t, tr)
	s.k = append(s.k, k)
	s.l = append(s.l, li)
}

func (s *linkStream) grow(n int) {
	s.t = slices.Grow(s.t, n)
	s.k = slices.Grow(s.k, n)
	s.l = slices.Grow(s.l, n)
}

func (s *linkStream) reset() {
	s.t, s.k, s.l = s.t[:0], s.k[:0], s.l[:0]
	s.unsorted = false
}

// NewExtractor builds the resolver and link index for one topology.
func NewExtractor(net *topo.Network) *Extractor {
	e := &Extractor{}
	e.links = make([]topo.LinkID, 0, len(net.Links))
	for _, l := range net.Links {
		e.links = append(e.links, l.ID)
	}
	sort.Slice(e.links, func(i, j int) bool { return e.links[i] < e.links[j] })
	byID := make(map[topo.LinkID]int32, len(e.links))
	for i, id := range e.links {
		byID[id] = int32(i)
	}

	// Keys live as substrings of one backing string: the table costs
	// O(interfaces) to build but a bounded number of allocations.
	type keySpan struct{ lo, hi, li int32 }
	var blob []byte
	spans := make([]keySpan, 0, 2*len(net.Links))
	for _, name := range net.RouterNames {
		for _, ifc := range net.Routers[name].Interfaces {
			if ifc.Link == "" {
				continue
			}
			lo := int32(len(blob))
			blob = append(blob, name...)
			blob = append(blob, 0)
			blob = append(blob, ifc.Name...)
			spans = append(spans, keySpan{lo, int32(len(blob)), byID[ifc.Link]})
		}
	}
	backing := string(blob)
	e.resolver = make(map[string]int32, len(spans))
	for _, sp := range spans {
		e.resolver[backing[sp.lo:sp.hi]] = sp.li
	}
	return e
}

// ExtractInto resolves and merges a syslog capture against the
// extractor's (mined) topology into a caller-owned result: Add for
// every message, then Finish. A cancellation leaves the result
// partially filled; callers observe it through ctx.Err() and discard
// the result.
func (e *Extractor) ExtractInto(ctx context.Context, msgs []*syslog.Message, mergeWindow time.Duration, workers int, st *SyslogTraces) {
	ctx, done := obs.Stage(ctx, "extract-syslog")
	defer done()
	e.Reserve(msgs)
	for _, m := range msgs {
		e.Add(m)
	}
	e.Finish(ctx, mergeWindow, workers, st)
}

// Reserve sizes each stream for the msgs whose link event sends them
// there.
func (e *Extractor) Reserve(msgs []*syslog.Message) {
	var adj, phys int
	for _, m := range msgs {
		switch m.Link.Type {
		case syslog.EventISISAdj:
			adj++
		case syslog.EventLink, syslog.EventLineProto:
			phys++
		}
	}
	e.adj.grow(adj)
	e.phys.grow(phys)
}

// Add consumes one message: a link event that resolves onto a known
// link is appended to the adjacency or physical stream, anything else
// is only counted. It reads the message's fields and parses nothing. m
// is not retained: a caller may reuse one Message for every line.
func (e *Extractor) Add(m *syslog.Message) {
	e.messages++
	ev := &m.Link
	if ev.Type == syslog.EventOther {
		e.nonLink++
		return
	}
	key := append(e.keyBuf[:0], m.Hostname...)
	key = append(key, 0)
	key = append(key, ev.Interface...)
	e.keyBuf = key
	li, ok := e.resolver[string(key)]
	if !ok {
		e.unresolved++
		return
	}
	tr := trace.Transition{Time: m.Timestamp, Link: e.links[li], Dir: trace.Down, Reporter: m.Hostname}
	if ev.Up {
		tr.Dir = trace.Up
	}
	if ev.Type == syslog.EventISISAdj {
		tr.Kind = trace.KindISISAdj
		e.adj.add(tr, li)
		return
	}
	tr.Kind = trace.KindPhysical
	e.phys.add(tr, li)
}

// Finish collapses everything added since the last Finish into st,
// truncating and reusing st's transition slices (empty streams leave
// them at length zero, not nil), and leaves the extractor empty for the
// next shard. mergeWindow is the span within which two same-direction
// messages are treated as the two routers' reports of one transition;
// the paper's ten-second matching window is the natural choice. The two
// streams merge as independent stages on at most workers goroutines;
// the output is the same at every worker count.
func (e *Extractor) Finish(ctx context.Context, mergeWindow time.Duration, workers int, st *SyslogTraces) {
	st.Messages, st.Unresolved, st.NonLink = e.messages, e.unresolved, e.nonLink
	st.AdjMessages, st.PhysMessages = len(e.adj.t), len(e.phys.t)
	_ = pool.StagesCtx(ctx, workers,
		func(context.Context) {
			// Per-router reports keep arrival order; the merge may
			// re-order the stream it is handed, so copy first.
			st.PerRouterAdj = append(st.PerRouterAdj[:0], e.adj.t...)
			st.MergedAdj = e.adj.merge(len(e.links), mergeWindow, st.MergedAdj)
		},
		func(context.Context) {
			st.MergedPhysical = e.phys.merge(len(e.links), mergeWindow, st.MergedPhysical)
		},
	)
	e.adj.reset()
	e.phys.reset()
	e.messages, e.unresolved, e.nonLink = 0, 0, 0
}

// merge collapses the stream's per-router reports into per-link
// transitions and returns them in SortTransitions order, in dst's
// storage when it is large enough. A time-sorted stream — every real
// capture — admits a single flat pass with per-link state — no
// per-link grouping, no map: the emitted subsequence is already
// time-ordered, and the final order differs from it only inside
// equal-timestamp runs, which are re-ordered by (link, direction,
// reporter) in place. A stream that arrived out of order is first
// stable-sorted by time, which gives each link the sequence a per-link
// stable sort would. A negative window never absorbs.
func (s *linkStream) merge(nlinks int, mergeWindow time.Duration, dst []trace.Transition) []trace.Transition {
	dst = dst[:0]
	if len(s.t) == 0 {
		return dst
	}
	if s.unsorted {
		sort.Stable(s)
	}
	if cap(s.lastEmit) < nlinks {
		s.lastEmit = make([]int64, nlinks)
		s.lastDir = make([]int8, nlinks)
		s.seen = make([]bool, nlinks)
	}
	lastEmit, lastDir, seen := s.lastEmit[:nlinks], s.lastDir[:nlinks], s.seen[:nlinks]
	clear(seen)
	if cap(dst) < len(s.t) {
		dst = make([]trace.Transition, 0, len(s.t))
	}
	w := int64(mergeWindow)
	outK, outL := slices.Grow(s.outK[:0], len(s.t)), slices.Grow(s.outL[:0], len(s.t))
	for i := range s.t {
		li, k, d := s.l[i], s.k[i], int8(s.t[i].Dir)
		if seen[li] && lastDir[li] == d {
			// sorted input makes k-lastEmit non-negative; a wrapped
			// (centuries-apart) difference lands negative and is
			// correctly not absorbed, matching time.Time.Sub's
			// saturation.
			if since := k - lastEmit[li]; since >= 0 && since <= w {
				continue // counterpart router's duplicate
			}
		}
		dst = append(dst, s.t[i])
		outK = append(outK, k)
		outL = append(outL, li<<1|int32(d))
		seen[li], lastDir[li], lastEmit[li] = true, d, k
	}
	s.outK, s.outL = outK, outL

	for i := 0; i < len(outK); {
		j := i + 1
		for j < len(outK) && outK[j] == outK[i] {
			j++
		}
		// Insertion sort the equal-time run by (link, direction,
		// reporter) — runs are almost always length 1. Reporter only
		// breaks a tie when a link flaps through the same direction
		// twice at one instant (Down/Up/Down): the repeats straddle an
		// opposite transition, so no window absorbs them.
		for a := i + 1; a < j; a++ {
			for b := a; b > i; b-- {
				if outL[b-1] < outL[b] || (outL[b-1] == outL[b] && dst[b-1].Reporter <= dst[b].Reporter) {
					break
				}
				outL[b-1], outL[b] = outL[b], outL[b-1]
				dst[b-1], dst[b] = dst[b], dst[b-1]
			}
		}
		i = j
	}
	return dst
}
