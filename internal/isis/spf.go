package isis

import (
	"container/heap"
	"sort"

	"netfail/internal/topo"
)

// SPF computes shortest paths over a link-state database, the way a
// real IS-IS speaker builds its routing table after each LSP change.
// Adjacencies are used only when advertised by both endpoints (the
// protocol's two-way connectivity check), so the routing view is
// exactly what "the routing state is ground truth" means in §3.2: if
// SPF has no path, traffic is not delivered.

// Route is one entry of the computed routing table.
type Route struct {
	// Dest is the destination system.
	Dest topo.SystemID
	// Metric is the total path cost.
	Metric uint32
	// NextHop is the first system after the source on the path;
	// equal to Dest for directly connected systems.
	NextHop topo.SystemID
	// Hops is the path length in links.
	Hops int
}

// SPFResult is the shortest-path tree from one source.
type SPFResult struct {
	Source topo.SystemID
	// Routes maps destination system to its route. Unreachable
	// systems are absent.
	Routes map[topo.SystemID]Route
}

// Reachable reports whether dest has a route.
func (r *SPFResult) Reachable(dest topo.SystemID) bool {
	_, ok := r.Routes[dest]
	return ok
}

// Sorted returns the routes ordered by destination for stable output.
func (r *SPFResult) Sorted() []Route {
	out := make([]Route, 0, len(r.Routes))
	for _, rt := range r.Routes {
		out = append(out, rt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dest.Less(out[j].Dest) })
	return out
}

// spfEdge is one usable (two-way-checked) adjacency.
type spfEdge struct {
	to     topo.SystemID
	metric uint32
}

// spfItem is a priority-queue entry.
type spfItem struct {
	sys     topo.SystemID
	dist    uint32
	hops    int
	nextHop topo.SystemID
	index   int
}

type spfQueue []*spfItem

func (q spfQueue) Len() int { return len(q) }

// Less orders by (dist, hops, system ID): a total order over the
// queue's live entries, so equal-cost paths are explored — and the
// first one kept — in the same order on every run.
func (q spfQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	return a.sys.Less(b.sys)
}
func (q spfQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i]; q[i].index = i; q[j].index = j }
func (q *spfQueue) Push(x any)   { it := x.(*spfItem); it.index = len(*q); *q = append(*q, it) }
func (q *spfQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// RunSPF computes the shortest-path tree from source over the
// database's current contents (Dijkstra with the ISO 10589 two-way
// check).
func RunSPF(db *Database, source topo.SystemID) *SPFResult {
	// Collect advertised adjacency sets per system.
	// The advertisement set unions all of a system's fragments
	// (ISO 10589 §7.3.7).
	adv := make(map[topo.SystemID]map[topo.SystemID]uint32)
	for _, lsp := range db.Snapshot() {
		if lsp.ID.Pseudonode != 0 {
			continue
		}
		sys := lsp.ID.System
		m, ok := adv[sys]
		if !ok {
			m = make(map[topo.SystemID]uint32)
			adv[sys] = m
		}
		for _, n := range lsp.Neighbors {
			// Keep the best metric among parallel adjacencies.
			if cur, dup := m[n.System]; !dup || n.Metric < cur {
				m[n.System] = n.Metric
			}
		}
	}
	// Two-way check: an edge exists only if both ends advertise it.
	edges := make(map[topo.SystemID][]spfEdge, len(adv))
	for from, nbrs := range adv {
		for to, metric := range nbrs {
			back, ok := adv[to][from]
			if !ok {
				continue
			}
			m := metric
			if back > m {
				m = back
			}
			edges[from] = append(edges[from], spfEdge{to: to, metric: m})
		}
	}
	// adv is ranged in map order; relax each node's neighbors in
	// system-ID order instead.
	for _, es := range edges {
		sort.Slice(es, func(i, j int) bool { return es[i].to.Less(es[j].to) })
	}

	res := &SPFResult{Source: source, Routes: make(map[topo.SystemID]Route)}
	if _, ok := adv[source]; !ok {
		return res
	}
	dist := map[topo.SystemID]uint32{source: 0}
	done := make(map[topo.SystemID]bool)
	q := &spfQueue{}
	heap.Push(q, &spfItem{sys: source})
	for q.Len() > 0 {
		it := heap.Pop(q).(*spfItem)
		if done[it.sys] {
			continue
		}
		done[it.sys] = true
		if it.sys != source {
			res.Routes[it.sys] = Route{Dest: it.sys, Metric: it.dist, NextHop: it.nextHop, Hops: it.hops}
		}
		for _, e := range edges[it.sys] {
			nd := it.dist + e.metric
			if cur, seen := dist[e.to]; seen && cur <= nd {
				continue
			}
			dist[e.to] = nd
			next := it.nextHop
			if it.sys == source {
				next = e.to
			}
			heap.Push(q, &spfItem{sys: e.to, dist: nd, hops: it.hops + 1, nextHop: next})
		}
	}
	return res
}
