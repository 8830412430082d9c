package config

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"netfail/internal/topo"
)

// The retired fmt.Sscanf miner, kept verbatim (names ref-prefixed) as
// the oracle for the differential tests below: the mined result must
// not move on any archive the simulator writes, and the interface-line
// parser may only reject what the reference took, never read it
// differently. It reads addresses with topo.ParseIPv4, which topo's
// own tests hold to the one spelling topo.FormatIPv4 writes; the
// spellings now rejected are a sign, embedded spaces and trailing
// bytes in a metric.

func refMine(a *Archive) (*Mined, error) {
	m := &Mined{Routers: make(map[string]*MinedRouter)}
	for _, host := range a.Hosts() {
		rev, _ := a.Latest(host)
		r, err := refParseConfig(rev.Text)
		if err != nil {
			return nil, fmt.Errorf("config: mining %s: %w", host, err)
		}
		if r.Name != host {
			return nil, fmt.Errorf("config: archive key %q but hostname line says %q", host, r.Name)
		}
		m.Routers[host] = r
	}

	net := topo.NewNetwork()
	for _, host := range sortedKeys(m.Routers) {
		r := m.Routers[host]
		class := topo.CPE
		if strings.Contains(r.Name, "-core-") {
			class = topo.Core
		}
		if err := net.AddRouter(&topo.Router{
			Name:     r.Name,
			Class:    class,
			SystemID: r.SystemID,
			Loopback: r.Loopback,
		}); err != nil {
			return nil, err
		}
	}

	bySubnet := make(map[uint32][]MinedInterface)
	for _, host := range sortedKeys(m.Routers) {
		for _, ifc := range m.Routers[host].Interfaces {
			subnet := ifc.Addr &^ 1
			bySubnet[subnet] = append(bySubnet[subnet], ifc)
		}
	}
	subnets := make([]uint32, 0, len(bySubnet))
	for s := range bySubnet {
		subnets = append(subnets, s)
	}
	sort.Slice(subnets, func(i, j int) bool { return subnets[i] < subnets[j] })
	for _, subnet := range subnets {
		ifaces := bySubnet[subnet]
		if len(ifaces) != 2 {
			m.Unpaired = append(m.Unpaired, ifaces...)
			continue
		}
		a, b := ifaces[0], ifaces[1]
		metric := a.Metric
		if b.Metric > metric {
			metric = b.Metric
		}
		if _, err := net.AddLink(
			topo.Endpoint{Host: a.Router, Port: a.Name},
			topo.Endpoint{Host: b.Router, Port: b.Name},
			subnet, metric,
		); err != nil {
			return nil, fmt.Errorf("config: pairing subnet %s: %w", topo.FormatIPv4(subnet), err)
		}
	}
	m.Network = net
	return m, nil
}

func refParseConfig(text string) (*MinedRouter, error) {
	r := &MinedRouter{}
	var cur *MinedInterface
	var inLoopback, inISIS bool

	flush := func() {
		if cur != nil && cur.Addr != 0 {
			r.Interfaces = append(r.Interfaces, *cur)
		}
		cur = nil
		inLoopback = false
	}

	for _, raw := range strings.Split(text, "\n") {
		line := strings.TrimRight(raw, " \t")
		indented := strings.HasPrefix(line, " ")
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || trimmed == "!" {
			continue
		}
		if !indented {
			flush()
			inISIS = false
			switch {
			case strings.HasPrefix(trimmed, "hostname "):
				r.Name = strings.TrimPrefix(trimmed, "hostname ")
			case strings.HasPrefix(trimmed, "interface Loopback"):
				inLoopback = true
			case strings.HasPrefix(trimmed, "interface "):
				cur = &MinedInterface{Name: strings.TrimPrefix(trimmed, "interface ")}
			case strings.HasPrefix(trimmed, "router isis"):
				inISIS = true
			}
			continue
		}
		switch {
		case cur != nil:
			if err := refParseInterfaceLine(cur, trimmed); err != nil {
				return nil, err
			}
		case inLoopback:
			if strings.HasPrefix(trimmed, "ip address ") {
				fields := strings.Fields(trimmed)
				if len(fields) >= 3 {
					addr, err := topo.ParseIPv4(fields[2])
					if err != nil {
						return nil, err
					}
					r.Loopback = addr
				}
			}
		case inISIS:
			if strings.HasPrefix(trimmed, "net ") {
				id, err := parseNET(strings.TrimPrefix(trimmed, "net "))
				if err != nil {
					return nil, err
				}
				r.SystemID = id
			}
		}
	}
	flush()
	if r.Name == "" {
		return nil, fmt.Errorf("config: no hostname line")
	}
	if r.SystemID.IsZero() {
		return nil, fmt.Errorf("config: %s: no IS-IS NET", r.Name)
	}
	for i := range r.Interfaces {
		r.Interfaces[i].Router = r.Name
	}
	return r, nil
}

func refParseInterfaceLine(ifc *MinedInterface, line string) error {
	switch {
	case strings.HasPrefix(line, "description "):
		ifc.Description = strings.TrimPrefix(line, "description ")
	case strings.HasPrefix(line, "ip address "):
		fields := strings.Fields(line)
		if len(fields) < 4 {
			return fmt.Errorf("config: bad ip address line %q", line)
		}
		addr, err := topo.ParseIPv4(fields[2])
		if err != nil {
			return err
		}
		mask, err := topo.ParseIPv4(fields[3])
		if err != nil {
			return err
		}
		ifc.Addr, ifc.Mask = addr, mask
	case strings.HasPrefix(line, "isis metric "):
		fields := strings.Fields(line)
		if len(fields) >= 3 {
			var m uint32
			if _, err := fmt.Sscanf(fields[2], "%d", &m); err != nil {
				return fmt.Errorf("config: bad metric line %q", line)
			}
			ifc.Metric = m
		}
	}
	return nil
}

// referenceArchives builds the archives the simulator writes for
// 60-day campaigns — weekly revisions from the day before the start —
// over the seed 1-3 backbones and over a backbone with two fabric pods.
func referenceArchives(t *testing.T) map[string]*Archive {
	t.Helper()
	start := time.Date(2011, time.January, 1, 0, 0, 0, 0, time.UTC)
	archive := func(n *topo.Network) *Archive {
		return GenerateArchive(n, start.Add(-24*time.Hour), start.Add(60*24*time.Hour), 7*24*time.Hour)
	}
	backbone := func(seed int64) *topo.Network {
		spec := topo.DefaultSpec()
		spec.Seed = seed
		n, err := topo.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	out := make(map[string]*Archive)
	for seed := int64(1); seed <= 3; seed++ {
		out[fmt.Sprintf("seed %d", seed)] = archive(backbone(seed))
	}
	pods, err := topo.Fabric(topo.DefaultFabricSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	nets := []*topo.Network{backbone(1)}
	for _, d := range pods {
		nets = append(nets, d.Net)
	}
	fabric, err := topo.Merge(nets...)
	if err != nil {
		t.Fatal(err)
	}
	out["2-pod fabric"] = archive(fabric)
	return out
}

func TestMineMatchesReference(t *testing.T) {
	for name, a := range referenceArchives(t) {
		got, err := Mine(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := refMine(a)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if len(got.Network.Links) == 0 {
			t.Fatalf("%s: no links mined", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Mine differs from the reference", name)
		}
	}
}

// FuzzInterfaceLineMatchesReference holds the interface-line parser —
// address, mask and metric — to a subset of the reference: every line
// it accepts, the reference accepts into the same interface record.
func FuzzInterfaceLineMatchesReference(f *testing.F) {
	for _, line := range []string{
		"ip address 137.164.0.1 255.255.255.254",
		"isis metric 100", "isis metric 4294967295", "isis metric 4294967296",
		"isis metric +10", "isis metric 10x", "isis metric 010",
		"ip address 01.2.3.4 255.255.255.254", "ip address 1.2.3.4x 255.255.255.254",
		"description to lax-core-01 TenGigE0/0/0/1",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		var got, want MinedInterface
		if parseInterfaceLine(&got, line) != nil {
			return
		}
		if err := refParseInterfaceLine(&want, line); err != nil || got != want {
			t.Fatalf("parseInterfaceLine(%q) = %+v; reference = %+v, %v", line, got, want, err)
		}
	})
}
