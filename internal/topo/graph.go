package topo

import "slices"

// Graph is a precomputed adjacency view of a Network used by the
// customer-isolation analysis, which must evaluate connectivity with
// an arbitrary subset of links failed at every event boundary. Nodes
// are positions in Network.RouterNames, links positions in
// Network.Links, customers positions in Network.Customers, all as of
// NewGraph. A Graph is read-only after NewGraph: any number of Sweeps
// may walk one at once.
type Graph struct {
	index map[string]int
	// adj[v] lists v's incident links with the node at the far end.
	adj   [][]halfEdge
	links []*Link
	// ends[l] holds the two nodes link l joins, equal when it joins
	// nothing.
	ends      [][2]int32
	linkIndex map[LinkID]int32
	coreNodes []int32
	// sites[c] lists the nodes of customer c's routers; a hostname
	// the network does not know is left out.
	customers []*Customer
	sites     [][]int32
}

type halfEdge struct{ to, link int32 }

// NewGraph builds the adjacency view.
func NewGraph(n *Network) *Graph {
	g := &Graph{
		index:     make(map[string]int, len(n.RouterNames)),
		adj:       make([][]halfEdge, len(n.RouterNames)),
		links:     n.Links,
		ends:      make([][2]int32, len(n.Links)),
		linkIndex: make(map[LinkID]int32, len(n.Links)),
		customers: n.Customers,
		sites:     make([][]int32, len(n.Customers)),
	}
	for i, name := range n.RouterNames {
		g.index[name] = i
		if n.Routers[name].Class == Core {
			g.coreNodes = append(g.coreNodes, int32(i))
		}
	}
	for li, l := range n.Links {
		g.linkIndex[l.ID] = int32(li)
		a, aok := g.index[l.A.Host]
		b, bok := g.index[l.B.Host]
		if !aok || !bok || a == b {
			// A self-loop, or an end AddLink would have refused:
			// joins nothing, and ends stays {0, 0}.
			continue
		}
		g.ends[li] = [2]int32{int32(a), int32(b)}
		g.adj[a] = append(g.adj[a], halfEdge{to: int32(b), link: int32(li)})
		g.adj[b] = append(g.adj[b], halfEdge{to: int32(a), link: int32(li)})
	}
	for ci, c := range n.Customers {
		for _, host := range c.Routers {
			if v, ok := g.index[host]; ok {
				g.sites[ci] = append(g.sites[ci], int32(v))
			}
		}
	}
	return g
}

// Node returns the node index of a hostname.
func (g *Graph) Node(host string) (int, bool) {
	v, ok := g.index[host]
	return v, ok
}

// Customers returns the network's customers as of NewGraph; Isolated
// takes positions in this list.
func (g *Graph) Customers() []*Customer { return g.customers }

// Sweep is the changing half of a connectivity study over one Graph:
// how many failures hold each link down, the component labels those
// down links leave, and the scratch the labelling reuses. Callers
// move links with Add and ask Connected or Isolated; the labels are
// recomputed, by one search over the whole graph, only when a link
// moved that could have changed them. Not for concurrent use.
type Sweep struct {
	g *Graph
	// count and down are indexed by link: the graph's links first,
	// then strangers in order of first sight.
	count     []int32
	down      []bool
	strangers []LinkID
	stranger  map[LinkID]int
	ndown     int
	// key folds the down links' linkKeys together: the down set's
	// name in a memo.
	key uint64

	// stale says labels, forest and backbone predate a link move that
	// matters. forest[l] marks the links the last search crossed to
	// reach a new node: while they all stay up the labels stand.
	stale    bool
	labels   []int
	comps    int
	backbone int
	forest   []bool
	queue    []int32
	cores    []int32
}

// NewSweep returns a sweep with every link up.
func (g *Graph) NewSweep() *Sweep {
	nn, nl := len(g.adj), len(g.ends)
	ints := make([]int32, nl+2*nn)
	bools := make([]bool, 2*nl)
	return &Sweep{
		g:      g,
		count:  ints[:nl:nl],
		queue:  ints[nl : nl : nl+nn],
		cores:  ints[nl+nn:],
		down:   bools[:nl:nl],
		forest: bools[nl:],
		labels: make([]int, nn),
		stale:  true,
	}
}

// Link returns the sweep's index for a link. A link the graph does
// not know gets an index of its own: it counts as down while failures
// hold it and shows in DownLinks, and never changes connectivity.
func (s *Sweep) Link(id LinkID) int {
	if l, ok := s.g.linkIndex[id]; ok {
		return int(l)
	}
	l, ok := s.stranger[id]
	if !ok {
		if s.stranger == nil {
			s.stranger = make(map[LinkID]int)
		}
		l = len(s.count)
		s.stranger[id] = l
		s.strangers = append(s.strangers, id)
		s.count = append(s.count, 0)
		s.down = append(s.down, false)
	}
	return l
}

// Add changes by delta the number of failures holding a link down; the
// link is down while that number is positive.
func (s *Sweep) Add(link, delta int) {
	s.count[link] += int32(delta)
	down := s.count[link] > 0
	if down == s.down[link] {
		return
	}
	s.down[link] = down
	s.key ^= linkKey(link)
	if down {
		s.ndown++
	} else {
		s.ndown--
	}
	if s.stale || link >= len(s.forest) {
		return
	}
	// Both rules are exact. A link outside the forest going down
	// leaves every node joined to its component's root by forest
	// links, all still up. A link coming up inside one component
	// merges nothing, and the forest spans the result as it did.
	if down {
		s.stale = s.forest[link]
	} else {
		e := s.g.ends[link]
		s.stale = s.labels[e[0]] != s.labels[e[1]]
	}
}

// DownCount returns how many links are down, strangers included.
func (s *Sweep) DownCount() int { return s.ndown }

// DownLinks returns the links that are down, sorted by ID.
func (s *Sweep) DownLinks() []LinkID {
	ids := make([]LinkID, 0, s.ndown)
	known := s.g.links
	for l, down := range s.down {
		switch {
		case !down:
		case l < len(known):
			ids = append(ids, known[l].ID)
		default:
			ids = append(ids, s.strangers[l-len(known)])
		}
	}
	slices.Sort(ids)
	return ids
}

// Refresh brings the labels up to date and reports whether it had to
// recompute them; false means every answer since the last Refresh
// still holds.
func (s *Sweep) Refresh() bool {
	if !s.stale {
		return false
	}
	s.stale = false
	for i := range s.labels {
		s.labels[i] = -1
	}
	clear(s.forest)
	adj, labels, down := s.g.adj, s.labels, s.down
	comp := 0
	for start := range labels {
		if labels[start] >= 0 {
			continue
		}
		labels[start] = comp
		queue := append(s.queue[:0], int32(start))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, e := range adj[v] {
				if down[e.link] || labels[e.to] >= 0 {
					continue
				}
				labels[e.to] = comp
				s.forest[e.link] = true
				queue = append(queue, e.to)
			}
		}
		comp++
	}
	s.comps = comp
	s.backbone = s.g.backboneOf(labels, s.cores[:comp])
	return true
}

// Connected reports whether a path joins two nodes.
func (s *Sweep) Connected(a, b int) bool {
	s.Refresh()
	return s.labels[a] == s.labels[b]
}

// Isolated reports whether none of a customer's routers is in the
// backbone component. A customer none of whose routers the graph
// knows is never isolated.
func (s *Sweep) Isolated(customer int) bool {
	s.Refresh()
	nodes := s.g.sites[customer]
	for _, v := range nodes {
		if s.labels[v] == s.backbone {
			return false
		}
	}
	return len(nodes) > 0
}

// backboneOf counts in counts, which has room for every label.
func (g *Graph) backboneOf(labels []int, counts []int32) int {
	clear(counts)
	best, bestCount := -1, int32(-1)
	for _, v := range g.coreNodes {
		c := labels[v]
		counts[c]++
		if counts[c] > bestCount {
			best, bestCount = c, counts[c]
		}
	}
	return best
}

// IsolatedCustomers returns the names of customers none of whose CPE
// routers can reach the backbone component when the given links are
// down. The down set is keyed by LinkID; with an empty one nobody is
// isolated.
func (g *Graph) IsolatedCustomers(down map[LinkID]bool) []string {
	if len(down) == 0 {
		return nil
	}
	s := g.NewSweep()
	for id, d := range down {
		if l, ok := g.linkIndex[id]; ok && d {
			s.Add(int(l), 1)
		}
	}
	var isolated []string
	for c, customer := range g.customers {
		if s.Isolated(c) {
			isolated = append(isolated, customer.Name)
		}
	}
	return isolated
}

// IsolationMemo remembers which customers are isolated per set of down
// links, the one thing the answer depends on: a failure trace comes
// back to the same few sets, as a flapping link does. Sweeps over one
// graph may share it in turn, not at once. It holds at most
// memoEntries sets, starting over when full. Strangers enter a set by
// a sweep's own index for them, harmless as they isolate nobody.
type IsolationMemo struct {
	index map[uint64]int32 // Sweep.key → entry
	// Entry e's down links are links[at[e]:at[e+1]] and its isolated
	// customers sets[e*words:][:words].
	links []int32
	at    []int32
	sets  []uint64
	words int
}

const memoEntries = 1 << 12

// NewIsolationMemo returns an empty memo for sweeps over g.
func (g *Graph) NewIsolationMemo() *IsolationMemo {
	return &IsolationMemo{index: make(map[uint64]int32), at: []int32{0}, words: (len(g.customers) + 63) / 64}
}

// IsolatedSet returns the customers isolated with the links now down,
// bit c%64 of word c/64 for customer c: from m if it has seen this
// down set, else from the labels, recorded in m. The slice is m's,
// read-only and valid until m's next use.
func (s *Sweep) IsolatedSet(m *IsolationMemo) []uint64 {
	if e, ok := m.index[s.key]; ok {
		// The entry is this down set if it has as many links, all down.
		links := m.links[m.at[e]:m.at[e+1]]
		hit := len(links) == s.ndown
		for _, l := range links {
			hit = hit && s.down[l]
		}
		if hit {
			return m.sets[int(e)*m.words:][:m.words]
		}
	}
	if len(m.at) > memoEntries {
		clear(m.index)
		m.links, m.at, m.sets = m.links[:0], m.at[:1], m.sets[:0]
	}
	e := int32(len(m.at) - 1)
	for l, down := range s.down {
		if down {
			m.links = append(m.links, int32(l))
		}
	}
	m.at = append(m.at, int32(len(m.links)))
	m.sets = slices.Grow(m.sets, m.words)[:len(m.sets)+m.words]
	set := m.sets[int(e)*m.words:]
	clear(set)
	for c := range s.g.sites {
		if s.Isolated(c) {
			set[c/64] |= 1 << (c % 64)
		}
	}
	m.index[s.key] = e
	return set
}

// linkKey is link l's share of a Sweep.key (splitmix64). IsolatedSet
// checks the set behind a key, so a collision only costs a miss.
func linkKey(l int) uint64 {
	z := uint64(l)*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
