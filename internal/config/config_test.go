package config

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"netfail/internal/topo"
)

var captureTime = time.Date(2010, time.October, 20, 0, 0, 0, 0, time.UTC)

func generated(t *testing.T) (*topo.Network, *Archive) {
	t.Helper()
	n, err := topo.Generate(topo.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	return n, pull(n)
}

// pull is one scheduled pull of every router's configuration, at
// captureTime.
func pull(n *topo.Network) *Archive {
	return GenerateArchive(n, captureTime, captureTime.Add(time.Hour), time.Hour)
}

func TestGenerateProducesFilePerRouter(t *testing.T) {
	n, a := generated(t)
	if a.FileCount() != len(n.RouterNames) {
		t.Errorf("files = %d, want %d", a.FileCount(), len(n.RouterNames))
	}
}

func TestRenderContainsEssentials(t *testing.T) {
	n, _ := generated(t)
	r := n.Routers[n.RouterNames[0]]
	text := Render(n, r)
	for _, want := range []string{
		"hostname " + r.Name,
		"router isis cenic",
		"net 49.0001." + r.SystemID.String() + ".00",
		"metric-style wide",
		"255.255.255.254", // /31 mask
		"logging host",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("config for %s missing %q", r.Name, want)
		}
	}
}

func TestMineRoundTripsTopology(t *testing.T) {
	n, a := generated(t)
	mined, err := Mine(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(mined.Unpaired) != 0 {
		t.Errorf("unpaired interfaces: %d", len(mined.Unpaired))
	}
	// Same routers, same classes, same system IDs.
	if len(mined.Network.Routers) != len(n.Routers) {
		t.Fatalf("routers = %d, want %d", len(mined.Network.Routers), len(n.Routers))
	}
	for name, orig := range n.Routers {
		got, ok := mined.Network.Routers[name]
		if !ok {
			t.Fatalf("router %s lost in mining", name)
		}
		if got.SystemID != orig.SystemID {
			t.Errorf("%s system ID %v, want %v", name, got.SystemID, orig.SystemID)
		}
		if got.Class != orig.Class {
			t.Errorf("%s class %v, want %v", name, got.Class, orig.Class)
		}
		if got.Loopback != orig.Loopback {
			t.Errorf("%s loopback %v, want %v", name, got.Loopback, orig.Loopback)
		}
	}
	// Same link set with same subnets and metrics.
	if len(mined.Network.Links) != len(n.Links) {
		t.Fatalf("links = %d, want %d", len(mined.Network.Links), len(n.Links))
	}
	for _, orig := range n.Links {
		got, ok := mined.Network.LinkByID(orig.ID)
		if !ok {
			t.Errorf("link %s lost in mining", orig.ID)
			continue
		}
		if got.Subnet != orig.Subnet || got.Metric != orig.Metric || got.Class != orig.Class {
			t.Errorf("link %s mined as %+v, want %+v", orig.ID, got, orig)
		}
	}
	// Multi-link adjacencies must survive, since the analysis keys
	// its IS-reachability exclusions on them.
	if got, want := len(mined.Network.MultiLinkAdjacencies()), len(n.MultiLinkAdjacencies()); got != want {
		t.Errorf("multi-link adjacencies = %d, want %d", got, want)
	}
}

func TestMineUsesLatestRevision(t *testing.T) {
	n, a := generated(t)
	host := n.RouterNames[0]
	// An older, different revision must be ignored.
	a.Add(host, Revision{
		Captured: captureTime.Add(-24 * time.Hour),
		Text:     "hostname " + host + "\nrouter isis cenic\n net 49.0001.9999.9999.9999.00\n!\nend\n",
	})
	mined, err := Mine(a)
	if err != nil {
		t.Fatal(err)
	}
	want := n.Routers[host].SystemID
	if got := mined.Network.Routers[host].SystemID; got != want {
		t.Errorf("mined system ID %v, want %v (latest revision)", got, want)
	}
}

func TestMineDetectsHostnameMismatch(t *testing.T) {
	a := NewArchive()
	a.Add("router-a", Revision{Captured: captureTime, Text: "hostname router-b\nrouter isis cenic\n net 49.0001.0000.0000.0001.00\n"})
	if _, err := Mine(a); err == nil {
		t.Error("expected hostname mismatch error")
	}
}

func TestMineRejectsMissingNET(t *testing.T) {
	a := NewArchive()
	a.Add("r", Revision{Captured: captureTime, Text: "hostname r\n"})
	if _, err := Mine(a); err == nil {
		t.Error("expected missing-NET error")
	}
}

func TestMineUnpairedInterface(t *testing.T) {
	a := NewArchive()
	a.Add("r", Revision{Captured: captureTime, Text: strings.Join([]string{
		"hostname r",
		"interface GigabitEthernet0/0/0",
		" description to somewhere unmanaged",
		" ip address 192.0.2.0 255.255.255.254",
		" ip router isis cenic",
		"!",
		"router isis cenic",
		" net 49.0001.0000.0000.0001.00",
		"!",
	}, "\n")})
	mined, err := Mine(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(mined.Unpaired) != 1 {
		t.Errorf("unpaired = %d, want 1", len(mined.Unpaired))
	}
	if len(mined.Network.Links) != 0 {
		t.Errorf("links = %d, want 0", len(mined.Network.Links))
	}
}

func TestParseNET(t *testing.T) {
	id, err := parseNET("49.0001.1921.6800.1042.00")
	if err != nil {
		t.Fatal(err)
	}
	if id.String() != "1921.6800.1042" {
		t.Errorf("id = %v", id)
	}
	for _, bad := range []string{"", "49.0001.1921.6800.1042.01", "49.0001.xxxx.yyyy.zzzz.00", "49.0001.00"} {
		if _, err := parseNET(bad); err == nil {
			t.Errorf("parseNET(%q) succeeded", bad)
		}
	}
}

func TestArchiveOrdering(t *testing.T) {
	a := NewArchive()
	late := Revision{Captured: captureTime.Add(time.Hour), Text: "late"}
	early := Revision{Captured: captureTime, Text: "early"}
	a.Add("r", late)
	a.Add("r", early)
	got, ok := a.Latest("r")
	if !ok || got.Text != "late" {
		t.Errorf("Latest = %+v", got)
	}
	if _, ok := a.Latest("missing"); ok {
		t.Error("Latest on missing host should report absence")
	}
}

// TestArchiveAddOrder: revisions added out of capture order are
// inserted in order, equal capture times keep the order they were
// added in, and a host's revisions added in order — as GenerateArchive
// and LoadDir add them — cost only the list's growth.
func TestArchiveAddOrder(t *testing.T) {
	a := NewArchive()
	for i, h := range []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 0} {
		a.Add("r", Revision{Captured: captureTime.Add(time.Duration(h) * time.Hour), Text: strconv.Itoa(i)})
	}
	var got []string
	for _, rev := range a.Revisions["r"] {
		got = append(got, rev.Text)
	}
	if want := "9 1 3 6 0 2 4 8 7 5"; strings.Join(got, " ") != want {
		t.Errorf("revisions in the order %s, want %s", strings.Join(got, " "), want)
	}

	const n = 256
	revs := make([]Revision, n)
	for i := range revs {
		revs[i].Captured = captureTime.Add(time.Duration(i) * time.Hour)
	}
	per := testing.AllocsPerRun(10, func() {
		a := NewArchive()
		for _, rev := range revs {
			a.Add("r", rev)
		}
	}) / n
	if per > 0.1 {
		t.Errorf("adding %d revisions in order allocates %.2f times per revision, want at most 0.1", n, per)
	}
}
