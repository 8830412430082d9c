package core

import (
	"context"
	"math"
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

// Extractor resolves syslog captures against one topology. It owns
// the (router, interface) → link resolver and all per-worker parse and
// merge scratch, so a long-lived Extractor — the streaming daemon's
// shape, and the benchmark's — performs only the handful of exact-size
// result allocations per ExtractInto call: amortized zero allocations
// per message. An Extractor is not safe for concurrent ExtractInto
// calls; ExtractInto itself fans out over the worker pool internally.
type Extractor struct {
	net   *topo.Network
	links []topo.LinkID // sorted; the merge state's index space

	// resolver maps "host\x00iface" to the link index, folding the
	// old router-map lookup + linear interface scan + link presence
	// check into one probe. Keys are substrings of one backing string.
	// Topology names never contain NUL, so the separator cannot be
	// forged by a hostile hostname: such a key simply misses, exactly
	// as the two-step lookup would.
	resolver map[string]int32

	shards        []extractShard // per-chunk parse scratch, reused across calls
	adjSt, physSt mergeState     // per-stream merge state + emit scratch
}

// extractShard is one chunk's parse output and the worker scratch that
// produced it: transition/key/link-index triples per stream, the
// resolver key buffer, and the reused link event.
type extractShard struct {
	adjT, physT []trace.Transition
	adjK, physK []int64 // UnixNano mirror of adjT/physT
	adjL, physL []int32 // link-index mirror of adjT/physT
	keyBuf      []byte
	ev          syslog.LinkEvent

	unresolved, nonLink int
	sorted              bool  // accepted entries were time-ordered within the chunk
	firstK, lastK       int64 // seam-check bounds (accepted entries only)
}

// mergeState is one stream's per-link merge state plus the key
// scratch mirroring the emitted transitions.
type mergeState struct {
	lastEmit []int64
	lastDir  []int8
	seen     []bool

	outK []int64
	outL []int32 // (link index << 1) | direction: the equal-time tie order
}

// reset sizes the per-link arrays and clears the seen marks.
func (ms *mergeState) reset(nlinks int) {
	if cap(ms.lastEmit) < nlinks {
		ms.lastEmit = make([]int64, nlinks)
		ms.lastDir = make([]int8, nlinks)
		ms.seen = make([]bool, nlinks)
	}
	ms.lastEmit = ms.lastEmit[:nlinks]
	ms.lastDir = ms.lastDir[:nlinks]
	ms.seen = ms.seen[:nlinks]
	clear(ms.seen)
}

// NewExtractor builds the resolver and link index for one topology.
func NewExtractor(net *topo.Network) *Extractor {
	e := &Extractor{net: net}
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
// extractor's (mined) topology into a caller-owned result, truncating
// and reusing st's transition slices. mergeWindow is the span within
// which two same-direction messages are treated as the two routers'
// reports of one transition; the paper's ten-second matching window is
// the natural choice.
//
// Above one worker the capture is split into contiguous chunks parsed
// concurrently, the shard outputs are walked in chunk order
// (reproducing the sequential message order exactly), and the per-link
// merges of the two streams then run as concurrent stages: output is
// byte-identical for any worker count. A cancellation leaves the
// result partially filled; callers observe it through ctx.Err() and
// discard the result.
//
// A long-lived (Extractor, result) pair — the streaming ingest shape —
// makes repeated extractions allocation-free at steady state: no
// per-message garbage means the collector never runs between captures.
// Empty streams leave the reused slices truncated to length zero
// rather than resetting them to nil.
func (e *Extractor) ExtractInto(ctx context.Context, msgs []*syslog.Message, mergeWindow time.Duration, workers int, st *SyslogTraces) {
	ctx, done := obs.Stage(ctx, "extract-syslog")
	defer done()
	bounds := chunkBounds(len(msgs), workers)
	nshards := len(bounds) - 1
	for len(e.shards) < nshards {
		e.shards = append(e.shards, extractShard{})
	}
	shards := e.shards[:nshards]
	_ = pool.ForEachWorkerCtx(ctx, nshards, workers, func(_ context.Context, _, i int) {
		shards[i].parseChunk(e, msgs[bounds[i]:bounds[i+1]])
	})

	adjN, physN := 0, 0
	st.Unresolved, st.NonLink = 0, 0
	sorted := true
	lastSeen := int64(math.MinInt64)
	for i := range shards {
		s := &shards[i]
		st.Unresolved += s.unresolved
		st.NonLink += s.nonLink
		adjN += len(s.adjT)
		physN += len(s.physT)
		if len(s.adjT)+len(s.physT) == 0 {
			continue
		}
		if !s.sorted || s.firstK < lastSeen {
			sorted = false
		}
		lastSeen = s.lastK
	}
	st.AdjMessages, st.PhysMessages = adjN, physN
	st.Messages = len(msgs)

	st.PerRouterAdj = st.PerRouterAdj[:0]
	if adjN > 0 {
		if cap(st.PerRouterAdj) < adjN {
			st.PerRouterAdj = make([]trace.Transition, 0, adjN)
		}
		for i := range shards {
			st.PerRouterAdj = append(st.PerRouterAdj, shards[i].adjT...)
		}
	}

	_ = pool.StagesCtx(ctx, workers,
		func(context.Context) {
			st.MergedAdj = e.mergeStream(&e.adjSt, shards, false, mergeWindow, adjN, sorted, st.MergedAdj)
		},
		func(context.Context) {
			st.MergedPhysical = e.mergeStream(&e.physSt, shards, true, mergeWindow, physN, sorted, st.MergedPhysical)
		},
	)
}

// parseChunk parses one contiguous chunk of the capture into the
// shard's reused accumulators.
func (s *extractShard) parseChunk(e *Extractor, msgs []*syslog.Message) {
	s.adjT, s.adjK, s.adjL = s.adjT[:0], s.adjK[:0], s.adjL[:0]
	s.physT, s.physK, s.physL = s.physT[:0], s.physK[:0], s.physL[:0]
	s.unresolved, s.nonLink = 0, 0
	s.sorted = true
	s.firstK, s.lastK = math.MaxInt64, math.MinInt64
	prev := int64(math.MinInt64)
	ev := &s.ev
	for _, m := range msgs {
		if err := syslog.ParseLinkEventInto(m, ev); err != nil {
			s.nonLink++
			continue
		}
		key := append(s.keyBuf[:0], ev.Router...)
		key = append(key, 0)
		key = append(key, ev.Interface...)
		s.keyBuf = key
		li, ok := e.resolver[string(key)]
		if !ok {
			s.unresolved++
			continue
		}
		dir := trace.Down
		if ev.Up {
			dir = trace.Up
		}
		k := ev.Time.UnixNano()
		switch ev.Type {
		case syslog.EventISISAdj:
			s.adjT = append(s.adjT, trace.Transition{Time: ev.Time, Link: e.links[li], Dir: dir, Kind: trace.KindISISAdj, Reporter: ev.Router})
			s.adjK = append(s.adjK, k)
			s.adjL = append(s.adjL, li)
		case syslog.EventLink, syslog.EventLineProto:
			s.physT = append(s.physT, trace.Transition{Time: ev.Time, Link: e.links[li], Dir: dir, Kind: trace.KindPhysical, Reporter: ev.Router})
			s.physK = append(s.physK, k)
			s.physL = append(s.physL, li)
		default:
			s.nonLink++
			continue
		}
		if k < prev {
			s.sorted = false
		}
		prev = k
		if s.firstK == math.MaxInt64 {
			s.firstK = k
		}
		s.lastK = k
	}
}

// mergeStream collapses one stream's per-router reports into per-link
// transitions and returns them time-sorted. The capture is time-sorted
// in every real pipeline, which admits a single flat pass with
// per-link state — no per-link grouping, no map, no sort: the emitted
// subsequence is already time-ordered, and the final SortTransitions
// order differs from it only inside equal-timestamp runs, which are
// re-ordered by (link, direction, reporter) in place. Unsorted input
// and negative windows take the reference path.
func (e *Extractor) mergeStream(ms *mergeState, shards []extractShard, phys bool, mergeWindow time.Duration, total int, sorted bool, dst []trace.Transition) []trace.Transition {
	dst = dst[:0]
	if total == 0 {
		return dst
	}
	stream := func(s *extractShard) ([]trace.Transition, []int64, []int32) {
		if phys {
			return s.physT, s.physK, s.physL
		}
		return s.adjT, s.adjK, s.adjL
	}
	if !sorted || mergeWindow < 0 {
		flat := make([]trace.Transition, 0, total)
		for i := range shards {
			sT, _, _ := stream(&shards[i])
			flat = append(flat, sT...)
		}
		return mergeLinkStreamReference(flat, mergeWindow)
	}

	ms.reset(len(e.links))
	if cap(dst) < total {
		dst = make([]trace.Transition, 0, total)
	}
	w := int64(mergeWindow)
	outK, outL := ms.outK[:0], ms.outL[:0]
	for si := range shards {
		sT, sK, sL := stream(&shards[si])
		for i := range sT {
			li := sL[i]
			k := sK[i]
			d := int8(sT[i].Dir)
			if ms.seen[li] && ms.lastDir[li] == d {
				// sorted input makes k-lastEmit non-negative; a wrapped
				// (centuries-apart) difference lands negative and is
				// correctly not absorbed, matching time.Time.Sub's
				// saturation.
				if since := k - ms.lastEmit[li]; since >= 0 && since <= w {
					continue // counterpart router's duplicate
				}
			}
			dst = append(dst, sT[i])
			outK = append(outK, k)
			outL = append(outL, li<<1|int32(d))
			ms.seen[li] = true
			ms.lastDir[li] = d
			ms.lastEmit[li] = k
		}
	}
	ms.outK, ms.outL = outK, outL

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

// mergeLinkStreamReference is the original map-grouped merge: group
// per link preserving time order, absorb same-direction duplicates
// within the window, concatenate in sorted link order, and sort. It
// remains the oracle the flat-pass fast path is tested against, and
// the fallback for unsorted captures and negative windows.
func mergeLinkStreamReference(msgs []trace.Transition, mergeWindow time.Duration) []trace.Transition {
	grouped := trace.ByLink(msgs)
	links := make([]topo.LinkID, 0, len(grouped))
	for l := range grouped {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })

	out := make([]trace.Transition, 0, len(msgs))
	for _, l := range links {
		out = append(out, mergeOneLink(grouped[l], mergeWindow)...)
	}
	trace.SortTransitions(out)
	return out
}

// mergeOneLink collapses one link's time-sorted message stream.
func mergeOneLink(seq []trace.Transition, mergeWindow time.Duration) []trace.Transition {
	var out []trace.Transition
	var lastDir trace.Direction
	var lastEmit time.Time
	seen := false
	for _, m := range seq {
		if seen && m.Dir == lastDir && m.Time.Sub(lastEmit) <= mergeWindow {
			continue // counterpart router's duplicate
		}
		out = append(out, m)
		lastDir, lastEmit, seen = m.Dir, m.Time, true
	}
	return out
}
