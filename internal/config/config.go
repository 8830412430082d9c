// Package config generates Cisco IOS-style router configuration files
// for a modeled network and — the part the paper's methodology
// depends on — mines an archive of such files back into the link
// namespace (hostname:port pairs, /31 subnets, IS-IS system IDs) that
// both the syslog and IS-IS reconstruction pipelines share (§3.4).
//
// The miner never sees the generating topology: it reconstructs
// everything from the config text, exactly as the original study had
// to, so generator and miner check each other.
package config

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"netfail/internal/topo"
)

// Revision is one archived configuration file for a router.
type Revision struct {
	// Captured is when the file was pulled from the device.
	Captured time.Time
	// Text is the full configuration body.
	Text string
	// unread marks a revision LoadDir counted without reading its
	// text.
	unread bool
}

// Archive is the config-file archive: every revision of every
// router's configuration, keyed by hostname. The paper's study mined
// 11,623 such files.
type Archive struct {
	Revisions map[string][]Revision
}

// NewArchive creates an empty archive.
func NewArchive() *Archive {
	return &Archive{Revisions: make(map[string][]Revision)}
}

// Add stores a revision, keeping the per-router list ordered by
// capture time.
func (a *Archive) Add(host string, rev Revision) {
	revs := append(a.Revisions[host], rev)
	sort.Slice(revs, func(i, j int) bool { return revs[i].Captured.Before(revs[j].Captured) })
	a.Revisions[host] = revs
}

// Latest returns the most recent revision for the router.
func (a *Archive) Latest(host string) (Revision, bool) {
	revs := a.Revisions[host]
	if len(revs) == 0 {
		return Revision{}, false
	}
	return revs[len(revs)-1], true
}

// Hosts returns the archived hostnames in sorted order.
func (a *Archive) Hosts() []string {
	hosts := make([]string, 0, len(a.Revisions))
	for h := range a.Revisions {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	return hosts
}

// FileCount returns the total number of archived files.
func (a *Archive) FileCount() int {
	total := 0
	for _, revs := range a.Revisions {
		total += len(revs)
	}
	return total
}

// Generate renders a configuration file for every router in the
// network, captured at the given time, into a fresh archive.
func Generate(n *topo.Network, captured time.Time) *Archive {
	a := NewArchive()
	for _, name := range n.RouterNames {
		a.Add(name, Revision{Captured: captured, Text: Render(n, n.Routers[name])})
	}
	return a
}

// GenerateArchive renders periodic configuration snapshots for every
// router over [start, end), one revision per interval — the shape of
// an operational config archive pulled on a schedule (the paper mined
// 11,623 files: roughly weekly pulls of 235 devices over 13 months).
func GenerateArchive(n *topo.Network, start, end time.Time, every time.Duration) *Archive {
	a := NewArchive()
	for _, name := range n.RouterNames {
		text := Render(n, n.Routers[name])
		for t := start; t.Before(end); t = t.Add(every) {
			a.Add(name, Revision{Captured: t, Text: text})
		}
	}
	return a
}

// Render produces the IOS-style configuration text for one router.
func Render(n *topo.Network, r *topo.Router) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hostname %s\n!\n", r.Name)
	fmt.Fprintf(&b, "interface Loopback0\n ip address %s 255.255.255.255\n!\n", topo.FormatIPv4(r.Loopback))
	for _, ifc := range r.Interfaces {
		link, _ := n.LinkByID(ifc.Link)
		fmt.Fprintf(&b, "interface %s\n", ifc.Name)
		fmt.Fprintf(&b, " description %s\n", ifc.Description)
		fmt.Fprintf(&b, " ip address %s 255.255.255.254\n", topo.FormatIPv4(ifc.Addr))
		fmt.Fprintf(&b, " ip router isis cenic\n")
		if link != nil {
			fmt.Fprintf(&b, " isis metric %d level-2\n", link.Metric)
		}
		b.WriteString("!\n")
	}
	fmt.Fprintf(&b, "router isis cenic\n net %s\n is-type level-2-only\n metric-style wide\n hostname dynamic\n!\n",
		netAddress(r.SystemID))
	b.WriteString("logging host 10.0.0.100\nlogging trap notifications\n!\nend\n")
	return b.String()
}

// netAddress renders the OSI NET "49.0001.<sysid>.00" for a system ID.
func netAddress(id topo.SystemID) string {
	return "49.0001." + id.String() + ".00"
}

// parseNET extracts the system ID from a NET address.
func parseNET(net string) (topo.SystemID, error) {
	parts := strings.Split(net, ".")
	// 49.0001.xxxx.xxxx.xxxx.00
	if len(parts) != 6 || parts[5] != "00" {
		return topo.SystemID{}, fmt.Errorf("config: malformed NET %q", net)
	}
	return topo.ParseSystemID(strings.Join(parts[2:5], "."))
}
