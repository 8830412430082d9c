package topo

import (
	"fmt"
	"sort"
)

// Customer is a CENIC customer site served by one or more CPE routers.
// A customer is isolated when none of its CPE routers can reach the
// backbone (paper §4.4).
type Customer struct {
	// Name is the site name, e.g. "site-042".
	Name string
	// Routers lists the hostnames of the site's CPE routers.
	Routers []string
}

// Network is the complete modeled topology.
type Network struct {
	// Routers maps hostname to router, with RouterNames giving a
	// stable iteration order.
	Routers     map[string]*Router
	RouterNames []string
	// Links lists every physical link in canonical order.
	Links []*Link
	// Customers lists the customer sites.
	Customers []*Customer

	byID        map[SystemID]*Router
	byLink      map[LinkID]*Link
	byAdjacency map[AdjacencyKey][]*Link
	bySubnet    map[uint32]*Link
}

// NewNetwork creates an empty network.
func NewNetwork() *Network {
	return &Network{
		Routers:     make(map[string]*Router),
		byID:        make(map[SystemID]*Router),
		byLink:      make(map[LinkID]*Link),
		byAdjacency: make(map[AdjacencyKey][]*Link),
		bySubnet:    make(map[uint32]*Link),
	}
}

// AddRouter registers a router. It returns an error for duplicate
// hostnames or system IDs.
func (n *Network) AddRouter(r *Router) error {
	if _, dup := n.Routers[r.Name]; dup {
		return fmt.Errorf("topo: duplicate router %q", r.Name)
	}
	if _, dup := n.byID[r.SystemID]; dup {
		return fmt.Errorf("topo: duplicate system ID %v (router %q)", r.SystemID, r.Name)
	}
	n.Routers[r.Name] = r
	n.RouterNames = append(n.RouterNames, r.Name)
	n.byID[r.SystemID] = r
	return nil
}

// AddLink connects two existing routers with a new link, creating the
// interfaces on both routers and assigning the /31 addresses.
func (n *Network) AddLink(a, b Endpoint, subnet, metric uint32) (*Link, error) {
	ra, ok := n.Routers[a.Host]
	if !ok {
		return nil, fmt.Errorf("topo: unknown router %q", a.Host)
	}
	rb, ok := n.Routers[b.Host]
	if !ok {
		return nil, fmt.Errorf("topo: unknown router %q", b.Host)
	}
	if ra.Interface(a.Port) != nil {
		return nil, fmt.Errorf("topo: interface %v already in use", a)
	}
	if rb.Interface(b.Port) != nil {
		return nil, fmt.Errorf("topo: interface %v already in use", b)
	}
	if subnet&1 != 0 {
		return nil, fmt.Errorf("topo: /31 subnet %s not aligned", FormatIPv4(subnet))
	}
	if _, dup := n.bySubnet[subnet]; dup {
		return nil, fmt.Errorf("topo: subnet %s already allocated", FormatIPv4(subnet))
	}

	id := MakeLinkID(a, b)
	if _, dup := n.byLink[id]; dup {
		return nil, fmt.Errorf("topo: duplicate link %s", id)
	}
	// Canonical endpoint order must match the LinkID order.
	ea, eb := id.Endpoints()
	class := CoreLink
	if n.Routers[ea.Host].Class == CPE || n.Routers[eb.Host].Class == CPE {
		class = CPELink
	}
	l := &Link{
		ID:        id,
		A:         ea,
		B:         eb,
		Class:     class,
		Subnet:    subnet,
		Metric:    metric,
		Adjacency: MakeAdjacencyKey(ra.SystemID, rb.SystemID),
	}
	n.Links = append(n.Links, l)
	n.byLink[id] = l
	n.byAdjacency[l.Adjacency] = append(n.byAdjacency[l.Adjacency], l)
	n.bySubnet[subnet] = l

	addrA, addrB := subnet, subnet+1
	if ea.Host != a.Host || ea.Port != a.Port {
		// a was the lexicographically later endpoint.
		ra, rb = rb, ra
	}
	ra.Interfaces = append(ra.Interfaces, &Interface{
		Name: ea.Port, Router: ea.Host, Addr: addrA, Link: id,
		Description: "to " + eb.Host + " " + eb.Port,
	})
	rb.Interfaces = append(rb.Interfaces, &Interface{
		Name: eb.Port, Router: eb.Host, Addr: addrB, Link: id,
		Description: "to " + ea.Host + " " + ea.Port,
	})
	return l, nil
}

// RouterByID resolves an OSI system ID to a router, as the IS-IS
// listener must before any link mapping is possible.
func (n *Network) RouterByID(id SystemID) (*Router, bool) {
	r, ok := n.byID[id]
	return r, ok
}

// LinkByID returns the link with the given canonical name.
func (n *Network) LinkByID(id LinkID) (*Link, bool) {
	l, ok := n.byLink[id]
	return l, ok
}

// LinksByAdjacency returns all parallel links between a router pair.
func (n *Network) LinksByAdjacency(key AdjacencyKey) []*Link {
	return n.byAdjacency[key]
}

// MultiLinkAdjacencies returns the adjacency keys carried by more than
// one physical link. Links under these keys are excluded from the
// IS-reachability analysis because their adjacency state is a function
// of n physical links (paper §3.4).
func (n *Network) MultiLinkAdjacencies() []AdjacencyKey {
	var keys []AdjacencyKey
	for k, links := range n.byAdjacency {
		if len(links) > 1 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Lo != keys[j].Lo {
			return keys[i].Lo.Less(keys[j].Lo)
		}
		return keys[i].Hi.Less(keys[j].Hi)
	})
	return keys
}

// IsMultiLink reports whether the link shares its adjacency with a
// parallel link.
func (n *Network) IsMultiLink(id LinkID) bool {
	l, ok := n.byLink[id]
	if !ok {
		return false
	}
	return len(n.byAdjacency[l.Adjacency]) > 1
}

// CriticalUplinks returns the links whose individual failure isolates
// a customer: the sole uplink of the sole CPE router of a
// single-router customer site. In operational networks these tend to
// be small, stable tail sites — the failure-workload generator treats
// them accordingly.
func (n *Network) CriticalUplinks() map[LinkID]bool {
	critical := make(map[LinkID]bool)
	for _, c := range n.Customers {
		if len(c.Routers) != 1 {
			continue
		}
		r, ok := n.Routers[c.Routers[0]]
		if !ok {
			continue
		}
		var links []LinkID
		for _, ifc := range r.Interfaces {
			if ifc.Link != "" {
				links = append(links, ifc.Link)
			}
		}
		if len(links) == 1 {
			critical[links[0]] = true
		}
	}
	return critical
}

// CountRouters returns the number of routers in each class.
func (n *Network) CountRouters() (core, cpe int) {
	for _, r := range n.Routers {
		if r.Class == Core {
			core++
		} else {
			cpe++
		}
	}
	return core, cpe
}

// CountLinks returns the number of links in each class.
func (n *Network) CountLinks() (core, cpe int) {
	for _, l := range n.Links {
		if l.Class == CoreLink {
			core++
		} else {
			cpe++
		}
	}
	return core, cpe
}
