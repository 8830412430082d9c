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

// sweepOf returns a fresh sweep with the true entries of down applied.
func (g *Graph) sweepOf(down map[LinkID]bool) *Sweep {
	s := g.NewSweep()
	for id, d := range down {
		if l, ok := g.linkIndex[id]; ok && d {
			s.Add(int(l), 1)
		}
	}
	return s
}

// components labels each router with a connected-component number,
// ignoring links for which down returns true. It returns the label
// slice (indexed like node indices) and the number of components.
func (g *Graph) components(down func(LinkID) bool) ([]int, int) {
	s := g.NewSweep()
	if down != nil {
		for l, link := range g.links {
			if down(link.ID) {
				s.Add(l, 1)
			}
		}
	}
	s.Refresh()
	return s.labels, s.comps
}

// backboneComponent returns the component label containing the most
// core routers, which the isolation analysis treats as "the backbone";
// among equals, the one whose count got there first in router order.
// labels is what components returned.
func (g *Graph) backboneComponent(labels []int) int {
	return g.backboneOf(labels, make([]int32, len(g.adj)))
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
	s := g.sweepOf(down)
	var isolated []string
	for c, customer := range g.customers {
		if s.Isolated(c) {
			isolated = append(isolated, customer.Name)
		}
	}
	return isolated
}

// reachable reports whether a path exists between two routers with the
// given links down.
func (g *Graph) reachable(from, to string, down map[LinkID]bool) bool {
	fi, ok := g.index[from]
	if !ok {
		return false
	}
	ti, ok := g.index[to]
	if !ok {
		return false
	}
	return g.sweepOf(down).Connected(fi, ti)
}
