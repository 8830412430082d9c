package topo

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
)

// Endpoint identifies one side of a link by hostname and interface
// name, the naming convention common to both data sources after
// config mining.
type Endpoint struct {
	Host string
	Port string
}

// String renders "host:port".
func (e Endpoint) String() string { return e.Host + ":" + e.Port }

// LinkID is the canonical name of a link: the two endpoints joined in
// lexicographic order. It is the common namespace onto which both the
// syslog hostname convention and the IS-IS OSI-ID convention are
// mapped (paper §3.4).
type LinkID string

// MakeLinkID builds the canonical LinkID for two endpoints, ordering
// them so that (a,b) and (b,a) produce the same ID.
func MakeLinkID(a, b Endpoint) LinkID {
	as, bs := a.String(), b.String()
	if bs < as {
		as, bs = bs, as
	}
	return LinkID(as + "|" + bs)
}

// Endpoints splits a LinkID back into its two endpoints. It returns
// zero-valued endpoints for a malformed ID.
func (id LinkID) Endpoints() (Endpoint, Endpoint) {
	parts := strings.Split(string(id), "|")
	if len(parts) != 2 {
		return Endpoint{}, Endpoint{}
	}
	return parseEndpoint(parts[0]), parseEndpoint(parts[1])
}

func parseEndpoint(s string) Endpoint {
	i := strings.Index(s, ":")
	if i < 0 {
		return Endpoint{Host: s}
	}
	return Endpoint{Host: s[:i], Port: s[i+1:]}
}

// LinkClass classifies a link by the routers it connects.
type LinkClass int

const (
	// CoreLink connects two backbone routers.
	CoreLink LinkClass = iota
	// CPELink connects a CPE router to the backbone (or, rarely,
	// to another CPE router).
	CPELink
)

// String returns "Core" or "CPE".
func (c LinkClass) String() string {
	if c == CoreLink {
		return "Core"
	}
	return "CPE"
}

// AdjacencyKey identifies the pair of IS-IS speakers a link connects,
// ordered so that the key is direction-independent. Because plain
// Extended IS Reachability cannot distinguish parallel links between
// the same pair of routers (paper §3.4, footnote 1), several links may
// share one AdjacencyKey; such multi-link adjacencies are excluded
// from the IS-reachability analysis.
type AdjacencyKey struct {
	Lo, Hi SystemID
}

// MakeAdjacencyKey orders two system IDs into an AdjacencyKey.
func MakeAdjacencyKey(a, b SystemID) AdjacencyKey {
	if b.Less(a) {
		a, b = b, a
	}
	return AdjacencyKey{Lo: a, Hi: b}
}

// Link is a physical point-to-point connection between two router
// interfaces.
type Link struct {
	// ID is the canonical link name.
	ID LinkID
	// A and B are the link's endpoints; A sorts before B.
	A, B Endpoint
	// Class reports whether this is a backbone or CPE uplink.
	Class LinkClass
	// Subnet is the /31 network address (host order) whose two
	// addresses number the endpoints; A gets Subnet, B Subnet+1.
	Subnet uint32
	// Metric is the configured IS-IS wide metric.
	Metric uint32
	// Adjacency names the router pair. Parallel links share it.
	Adjacency AdjacencyKey
}

// Other returns the endpoint opposite to the one on host, and true if
// host terminates the link.
func (l *Link) Other(host string) (Endpoint, bool) {
	switch host {
	case l.A.Host:
		return l.B, true
	case l.B.Host:
		return l.A, true
	}
	return Endpoint{}, false
}

// FormatIPv4 renders a host-order IPv4 address in dotted quad form.
func FormatIPv4(a uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// ParseIPv4 parses a dotted quad into a host-order uint32. It takes
// the one spelling FormatIPv4 writes: four decimal octets, no sign,
// space, leading zero or trailing byte.
func ParseIPv4(s string) (uint32, error) {
	a, err := netip.ParseAddr(s)
	if err != nil || !a.Is4() {
		return 0, fmt.Errorf("topo: bad IPv4 address %q", s)
	}
	b := a.As4()
	return binary.BigEndian.Uint32(b[:]), nil
}
