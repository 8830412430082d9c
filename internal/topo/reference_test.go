package topo

// The string-keyed graph this package shipped before the integer
// adjacency, kept verbatim (ref-prefixed) as the oracle for
// equivalence_test.go. One line differs from what shipped: a customer
// router the network does not know is skipped instead of aliasing
// node 0 (the bug TestUnknownCustomerRouterIsNotNodeZero pins), and a
// site left with no known router is never isolated.

type refGraph struct {
	net       *Network
	index     map[string]int
	names     []string
	edges     [][]*Link
	coreNodes []int
}

func refNewGraph(n *Network) *refGraph {
	g := &refGraph{
		net:   n,
		index: make(map[string]int, len(n.Routers)),
	}
	for _, name := range n.RouterNames {
		g.index[name] = len(g.names)
		g.names = append(g.names, name)
		if n.Routers[name].Class == Core {
			g.coreNodes = append(g.coreNodes, g.index[name])
		}
	}
	g.edges = make([][]*Link, len(g.names))
	for _, l := range n.Links {
		ai, bi := g.index[l.A.Host], g.index[l.B.Host]
		g.edges[ai] = append(g.edges[ai], l)
		g.edges[bi] = append(g.edges[bi], l)
	}
	return g
}

func (g *refGraph) Components(down func(LinkID) bool) ([]int, int) {
	labels := make([]int, len(g.names))
	for i := range labels {
		labels[i] = -1
	}
	comp := 0
	queue := make([]int, 0, len(g.names))
	for start := range g.names {
		if labels[start] >= 0 {
			continue
		}
		labels[start] = comp
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, l := range g.edges[v] {
				if down != nil && down(l.ID) {
					continue
				}
				var w int
				if g.index[l.A.Host] == v {
					w = g.index[l.B.Host]
				} else {
					w = g.index[l.A.Host]
				}
				if labels[w] < 0 {
					labels[w] = comp
					queue = append(queue, w)
				}
			}
		}
		comp++
	}
	return labels, comp
}

func (g *refGraph) BackboneComponent(labels []int) int {
	counts := make(map[int]int)
	best, bestCount := -1, -1
	for _, ni := range g.coreNodes {
		c := labels[ni]
		counts[c]++
		if counts[c] > bestCount {
			best, bestCount = c, counts[c]
		}
	}
	return best
}

func (g *refGraph) IsolatedCustomers(down map[LinkID]bool) []string {
	if len(down) == 0 {
		return nil
	}
	labels, _ := g.Components(func(id LinkID) bool { return down[id] })
	backbone := g.BackboneComponent(labels)
	var isolated []string
	for _, c := range g.net.Customers {
		cut, known := true, false
		for _, host := range c.Routers {
			ni, ok := g.index[host] // shipped: labels[g.index[host]]
			if !ok {
				continue
			}
			known = true
			if labels[ni] == backbone {
				cut = false
				break
			}
		}
		if cut && known {
			isolated = append(isolated, c.Name)
		}
	}
	return isolated
}

func (g *refGraph) Reachable(from, to string, down map[LinkID]bool) bool {
	fi, ok := g.index[from]
	if !ok {
		return false
	}
	ti, ok := g.index[to]
	if !ok {
		return false
	}
	labels, _ := g.Components(func(id LinkID) bool { return down[id] })
	return labels[fi] == labels[ti]
}
