package core

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"netfail/internal/syslog"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// tinyNet builds a two-router, one-link network for unit tests.
func tinyNet(t *testing.T) (*topo.Network, topo.LinkID) {
	t.Helper()
	n := topo.NewNetwork()
	for i, name := range []string{"core-a", "cpe-1"} {
		class := topo.Core
		if i == 1 {
			class = topo.CPE
		}
		if err := n.AddRouter(&topo.Router{
			Name: name, Class: class, SystemID: topo.SystemIDFromIndex(i + 1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	l, err := n.AddLink(
		topo.Endpoint{Host: "core-a", Port: "Te0"},
		topo.Endpoint{Host: "cpe-1", Port: "Gi0"}, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	return n, l.ID
}

// extractSyslog is a one-shot extraction into a fresh result: a new
// Extractor for n, workers as ExtractInto takes them.
func extractSyslog(n *topo.Network, msgs []*syslog.Message, mergeWindow time.Duration, workers int) *SyslogTraces {
	st := &SyslogTraces{}
	NewExtractor(n).ExtractInto(context.Background(), msgs, mergeWindow, workers, st)
	return st
}

func adjMsg(host, iface, peer string, sec int, up bool) *syslog.Message {
	return syslog.AdjChange(syslog.DialectIOS, host, uint64(sec),
		time.Unix(int64(sec), 0).UTC(), peer, iface, up, "test")
}

func TestExtractSyslogResolvesAndSplits(t *testing.T) {
	n, link := tinyNet(t)
	msgs := []*syslog.Message{
		adjMsg("core-a", "Te0", "cpe-1", 100, false),
		adjMsg("cpe-1", "Gi0", "core-a", 103, false), // counterpart: merged
		adjMsg("core-a", "Te0", "cpe-1", 200, true),
		syslog.LinkUpDown("core-a", 5, time.Unix(150, 0).UTC(), "Te0", false),
		// Unresolvable: unknown interface.
		adjMsg("core-a", "Te99", "cpe-1", 300, false),
		// Unknown router.
		adjMsg("ghost", "Te0", "cpe-1", 300, false),
	}
	st := extractSyslog(n, msgs, 60*time.Second, 1)

	if st.AdjMessages != 3 {
		t.Errorf("adj messages = %d, want 3", st.AdjMessages)
	}
	if st.PhysMessages != 1 {
		t.Errorf("phys messages = %d, want 1", st.PhysMessages)
	}
	if st.Unresolved != 2 {
		t.Errorf("unresolved = %d, want 2", st.Unresolved)
	}
	if len(st.PerRouterAdj) != 3 {
		t.Errorf("per-router = %d, want 3", len(st.PerRouterAdj))
	}
	// Merged: Down(100) [Down(103) absorbed] Up(200).
	if len(st.MergedAdj) != 2 {
		t.Fatalf("merged = %+v", st.MergedAdj)
	}
	if st.MergedAdj[0].Dir != trace.Down || !st.MergedAdj[0].Time.Equal(time.Unix(100, 0).UTC()) {
		t.Errorf("merged[0] = %+v", st.MergedAdj[0])
	}
	if st.MergedAdj[0].Link != link {
		t.Errorf("link = %v", st.MergedAdj[0].Link)
	}
	if len(st.MergedPhysical) != 1 {
		t.Errorf("physical = %+v", st.MergedPhysical)
	}
}

func TestExtractSyslogKeepsTrueDoubles(t *testing.T) {
	n, _ := tinyNet(t)
	msgs := []*syslog.Message{
		adjMsg("core-a", "Te0", "cpe-1", 100, false),
		adjMsg("core-a", "Te0", "cpe-1", 300, false), // 200 s later: genuine double
		adjMsg("core-a", "Te0", "cpe-1", 400, true),
	}
	st := extractSyslog(n, msgs, 60*time.Second, 1)
	if len(st.MergedAdj) != 3 {
		t.Fatalf("merged = %+v (true double must survive)", st.MergedAdj)
	}
	rec := trace.Reconstruct(st.MergedAdj)
	if len(rec.Ambiguities) != 1 || rec.Ambiguities[0].Dir != trace.Down {
		t.Errorf("ambiguities = %+v", rec.Ambiguities)
	}
}

func TestExtractSyslogAlternationNotMerged(t *testing.T) {
	// Down/Up pairs inside the merge window alternate direction and
	// must all survive (a 3-second flap blip is two transitions).
	n, _ := tinyNet(t)
	msgs := []*syslog.Message{
		adjMsg("core-a", "Te0", "cpe-1", 100, false),
		adjMsg("core-a", "Te0", "cpe-1", 103, true),
		adjMsg("core-a", "Te0", "cpe-1", 106, false),
		adjMsg("core-a", "Te0", "cpe-1", 109, true),
	}
	st := extractSyslog(n, msgs, 60*time.Second, 1)
	if len(st.MergedAdj) != 4 {
		t.Fatalf("merged = %d, want 4", len(st.MergedAdj))
	}
	rec := trace.Reconstruct(st.MergedAdj)
	if len(rec.Failures) != 2 {
		t.Errorf("failures = %+v", rec.Failures)
	}
}

// TestExtractSyslogEqualTimeOrder: transitions at one instant leave
// the merge ordered by link, then direction (Down first), then
// reporter, whatever order they arrived in — the order SortTransitions
// gives and the store's segments and the tables depend on. Link 1
// goes Down, Up and Down again at that instant, so its two Downs
// straddle the Up, both survive, and only their reporters order them.
func TestExtractSyslogEqualTimeOrder(t *testing.T) {
	n := topo.NewNetwork()
	for i, name := range []string{"core-a", "cpe-1", "cpe-2", "cpe-3"} {
		class := topo.CPE
		if i == 0 {
			class = topo.Core
		}
		if err := n.AddRouter(&topo.Router{Name: name, Class: class, SystemID: topo.SystemIDFromIndex(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	var links [4]topo.LinkID // by cpe number; the IDs sort in that order
	for i := 1; i <= 3; i++ {
		l, err := n.AddLink(topo.Endpoint{Host: "core-a", Port: fmt.Sprintf("Te%d", i)},
			topo.Endpoint{Host: fmt.Sprintf("cpe-%d", i), Port: "Gi0"}, uint32(2*i), 10)
		if err != nil {
			t.Fatal(err)
		}
		links[i] = l.ID
	}
	if !slices.IsSorted(links[1:]) {
		t.Fatalf("link IDs %v do not sort in cpe order", links[1:])
	}
	const at = 100
	msgs := []*syslog.Message{
		adjMsg("cpe-3", "Gi0", "core-a", at-1, false),
		adjMsg("cpe-3", "Gi0", "core-a", at, true),
		adjMsg("core-a", "Te2", "cpe-2", at, false),
		adjMsg("cpe-1", "Gi0", "core-a", at, false),
		adjMsg("core-a", "Te1", "cpe-1", at, true),
		adjMsg("cpe-2", "Gi0", "core-a", at, true),
		adjMsg("core-a", "Te1", "cpe-1", at, false),
		adjMsg("cpe-2", "Gi0", "core-a", at+1, false),
	}
	type key struct {
		sec      int64
		link     topo.LinkID
		dir      trace.Direction
		reporter string
	}
	want := []key{
		{at - 1, links[3], trace.Down, "cpe-3"},
		{at, links[1], trace.Down, "core-a"},
		{at, links[1], trace.Down, "cpe-1"},
		{at, links[1], trace.Up, "core-a"},
		{at, links[2], trace.Down, "core-a"},
		{at, links[2], trace.Up, "cpe-2"},
		{at, links[3], trace.Up, "cpe-3"},
		{at + 1, links[2], trace.Down, "cpe-2"},
	}
	var got []key
	for _, tr := range extractSyslog(n, msgs, 10*time.Second, 1).MergedAdj {
		got = append(got, key{tr.Time.Unix(), tr.Link, tr.Dir, tr.Reporter})
	}
	if !slices.Equal(got, want) {
		t.Errorf("merged order:\n got %v\nwant %v", got, want)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	n, _ := tinyNet(t)
	if _, err := Analyze(context.Background(), Input{}); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := Analyze(context.Background(), Input{Network: n}); err == nil {
		t.Error("empty window accepted")
	}
	in := Input{
		Network: n,
		Start:   time.Unix(0, 0),
		End:     time.Unix(1000, 0),
	}
	a, err := Analyze(context.Background(), in)
	if err != nil {
		t.Fatalf("minimal analyze: %v", err)
	}
	if len(a.AnalyzedLinks) != 1 {
		t.Errorf("analyzed links = %d", len(a.AnalyzedLinks))
	}
	// Defaults applied.
	if a.In.Window != 10*time.Second || a.In.MergeWindow != 60*time.Second {
		t.Errorf("defaults: %+v", a.In)
	}
}

func TestAnalyzeExcludesMultiLink(t *testing.T) {
	n, _ := tinyNet(t)
	// Add a parallel link to create a multi-link adjacency.
	if _, err := n.AddLink(
		topo.Endpoint{Host: "core-a", Port: "Te1"},
		topo.Endpoint{Host: "cpe-1", Port: "Gi1"}, 2, 10); err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(context.Background(), Input{Network: n, Start: time.Unix(0, 0), End: time.Unix(1000, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.AnalyzedLinks) != 0 {
		t.Errorf("multi-link adjacency links must be excluded: %v", a.AnalyzedLinks)
	}
}

// TestExtractSyslogCountsNonLink: a message that is no well-formed link
// event counts as non-link and adds no transition, whatever the event
// before it left in the fields a part-way parse does not overwrite.
func TestExtractSyslogCountsNonLink(t *testing.T) {
	for _, tc := range []struct{ name, mnemonic, text string }{
		{"other mnemonic", "SYS-5-CONFIG_I", "Configured from console by vty0"},
		{"adjacency without interface", "CLNS-5-ADJCHANGE", "ISIS: Adjacency to cpe-1 Up, new adjacency"},
		{"adjacency without prefix", "ROUTING-ISIS-4-ADJCHANGE", "Neighbor cpe-1 lost"},
		{"link without state words", "LINK-3-UPDOWN", "Interface Te0 flapped"},
		{"line protocol with a bad direction", "LINEPROTO-5-UPDOWN", "Line protocol on Interface Te0, changed state to testing"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, _ := tinyNet(t)
			bad := &syslog.Message{Timestamp: time.Unix(150, 0).UTC(), Hostname: "core-a", Mnemonic: tc.mnemonic, Text: tc.text}
			st := extractSyslog(n, []*syslog.Message{adjMsg("core-a", "Te0", "cpe-1", 100, false), bad, adjMsg("core-a", "Te0", "cpe-1", 200, true)}, 10*time.Second, 1)
			if st.NonLink != 1 || st.Unresolved != 0 || st.AdjMessages != 2 || st.PhysMessages != 0 || len(st.MergedAdj) != 2 {
				t.Errorf("non-link %d, unresolved %d, adj %d, phys %d, merged %+v; want 1, 0, 2, 0 and Down(100) Up(200)",
					st.NonLink, st.Unresolved, st.AdjMessages, st.PhysMessages, st.MergedAdj)
			}
		})
	}
}
