// Package device models an IS-IS speaking router as the two
// observation channels see it: it tracks per-link adjacency and
// physical state, originates link-state PDUs reflecting that state
// (Extended IS Reachability for adjacencies, Extended IP Reachability
// for the /31 link subnets and the loopback), and formats the Cisco
// syslog messages a real device would emit on each transition.
package device

import (
	"time"

	"netfail/internal/isis"
	"netfail/internal/syslog"
	"netfail/internal/topo"
)

// Router is one simulated device.
type Router struct {
	// Info is the underlying topology record.
	Info *topo.Router
	// Dialect selects the syslog message flavor (IOS vs IOS XR).
	Dialect syslog.Dialect

	// LinkIDCapable enables the RFC 5307 link-identifier sub-TLVs in
	// Extended IS Reachability entries, making parallel adjacencies
	// differentiable (the paper's footnote-1 extension, off by
	// default to match CENIC's deployment).
	LinkIDCapable bool

	ifaces []Interface
	lspSeq uint32
	logSeq uint64
	// scratch is the LSP every origination refills; wireCap is the
	// longest encoding seen, which sizes the next one's buffer.
	scratch isis.LSP
	wireCap int
}

// Interface is one IS-IS interface of a Router with everything a
// transition on it needs — peer, port names, metric, subnet — resolved
// from the topology once, at New. A caller that works one link through
// many transitions holds the Interface instead of looking the link up
// per call.
type Interface struct {
	// Router is the owning device.
	Router *Router

	link           topo.LinkID
	port, peerHost string
	peer           topo.SystemID
	metric, subnet uint32
	// linkIDs is the RFC 5307 sub-TLV list the neighbor entry carries
	// when the router is LinkIDCapable: the link's unique /31 doubles
	// as the circuit ID, identical from both ends.
	linkIDs           []isis.RawTLV
	adjDown, physDown bool
}

// New creates a router with all links up.
func New(net *topo.Network, info *topo.Router, dialect syslog.Dialect) *Router {
	d := &Router{Info: info, Dialect: dialect, ifaces: make([]Interface, 0, len(info.Interfaces))}
	for _, ifc := range info.Interfaces {
		link, ok := net.LinkByID(ifc.Link)
		if !ok {
			continue
		}
		peer, ok := link.Other(info.Name)
		if !ok {
			continue
		}
		peerRouter := net.Routers[peer.Host]
		if peerRouter == nil {
			continue
		}
		port := link.B.Port
		if link.A.Host == info.Name {
			port = link.A.Port
		}
		var ids isis.ISNeighbor
		ids.SetLinkIDs(link.Subnet, link.Subnet)
		d.ifaces = append(d.ifaces, Interface{
			Router: d, link: link.ID, port: port, peerHost: peer.Host, peer: peerRouter.SystemID,
			metric: link.Metric, subnet: link.Subnet, linkIDs: ids.SubTLVs,
		})
	}
	d.scratch = *isis.NewLSP(info.SystemID, 0, info.Name,
		make([]isis.ISNeighbor, 0, len(d.ifaces)), make([]isis.IPPrefix, 0, 1+len(d.ifaces)))
	return d
}

// Interface returns the router's interface on link, nil if it
// terminates no such link.
func (d *Router) Interface(link topo.LinkID) *Interface {
	for i := range d.ifaces {
		if d.ifaces[i].link == link {
			return &d.ifaces[i]
		}
	}
	return nil
}

// SetAdjacency records the interface's adjacency state and reports
// whether it changed.
func (i *Interface) SetAdjacency(up bool) bool {
	if i.adjDown == !up {
		return false
	}
	i.adjDown = !up
	return true
}

// SetPhysical records the physical interface state and reports whether
// it changed.
func (i *Interface) SetPhysical(up bool) bool {
	if i.physDown == !up {
		return false
	}
	i.physDown = !up
	return true
}

// fill rebuilds the scratch LSP from current state with the next
// sequence number, reusing its neighbor and prefix arrays. Parallel
// links to the same neighbor produce one IS-reachability entry per
// link — indistinguishable without the RFC 5305 link-ID sub-TLVs
// CENIC's devices do not run (paper §3.4, footnote 1).
func (d *Router) fill() *isis.LSP {
	d.lspSeq++
	l := &d.scratch
	l.Sequence = d.lspSeq
	l.Neighbors = l.Neighbors[:0]
	l.Prefixes = append(l.Prefixes[:0], isis.IPPrefix{Metric: 0, Addr: d.Info.Loopback, Length: 32})
	for i := range d.ifaces {
		ifc := &d.ifaces[i]
		if !ifc.adjDown {
			nbr := isis.ISNeighbor{System: ifc.peer, Metric: ifc.metric}
			if d.LinkIDCapable {
				nbr.SubTLVs = ifc.linkIDs
			}
			l.Neighbors = append(l.Neighbors, nbr)
		}
		if !ifc.physDown {
			l.Prefixes = append(l.Prefixes, isis.IPPrefix{Metric: ifc.metric, Addr: ifc.subnet, Length: 31})
		}
	}
	return l
}

// EncodeLSP originates the next LSP, with the next sequence number,
// and returns its wire bytes for one allocation: the buffer, sized
// from the router's earlier LSPs, which the caller owns.
func (d *Router) EncodeLSP() ([]byte, error) {
	wire, err := d.fill().AppendEncode(make([]byte, 0, d.wireCap))
	d.wireCap = max(d.wireCap, len(wire))
	return wire, err
}

// AdjMessage builds the IS-IS adjacency-change syslog message for a
// transition on the interface.
func (i *Interface) AdjMessage(ts time.Time, up bool, reason string) syslog.Message {
	d := i.Router
	d.logSeq++
	// Collectors record millisecond resolution; quantize here so
	// captures serialize losslessly.
	ts = ts.Truncate(time.Millisecond)
	return syslog.AdjChange(d.Dialect, d.Info.Name, d.logSeq, ts, i.peerHost, i.port, up, reason)
}

// LinkMessages builds the physical-media syslog messages (%LINK and
// %LINEPROTO) for a physical transition on the interface.
func (i *Interface) LinkMessages(ts time.Time, up bool) [2]syslog.Message {
	d := i.Router
	ts = ts.Truncate(time.Millisecond)
	d.logSeq += 2
	return [2]syslog.Message{
		syslog.LinkUpDown(d.Info.Name, d.logSeq-1, ts, i.port, up),
		syslog.LineProtoUpDown(d.Info.Name, d.logSeq, ts.Add(50*time.Millisecond), i.port, up),
	}
}
