package syslog

import (
	"strings"
	"testing"
	"time"
)

var refTime = time.Date(2011, time.March, 15, 0, 0, 0, 0, time.UTC)

// parseLine parses line through a fresh Tokenizer.
func parseLine(line string, ref time.Time) (*Message, error) {
	m := new(Message)
	if err := NewTokenizer().ParseBytes([]byte(line), ref, m); err != nil {
		return nil, err
	}
	return m, nil
}

// msgPtr returns a pointer to a message the constructors built by
// value.
func msgPtr(m Message) *Message { return &m }

func ts(month time.Month, day, hour, min, sec, ms int) time.Time {
	return time.Date(2011, month, day, hour, min, sec, ms*int(time.Millisecond), time.UTC)
}

func TestAdjChangeRenderParseRoundTrip(t *testing.T) {
	for _, dialect := range []Dialect{DialectIOS, DialectIOSXR} {
		orig := AdjChange(dialect, "riv-core-01", 421, ts(time.March, 3, 4, 5, 6, 789),
			"cpe-001", "TenGigE0/1/0/3", false, "hold time expired")
		line := orig.Render()
		m, err := parseLine(line, refTime)
		if err != nil {
			t.Fatalf("dialect %d: ParseBytes(%q): %v", dialect, line, err)
		}
		if m.Hostname != "riv-core-01" || m.Seq != 421 {
			t.Errorf("header: %+v", m)
		}
		if !m.Timestamp.Equal(orig.Timestamp) {
			t.Errorf("timestamp = %v, want %v", m.Timestamp, orig.Timestamp)
		}
		if ev := m.Link; ev.Type != EventISISAdj || ev.Up || ev.Neighbor != "cpe-001" ||
			ev.Interface != "TenGigE0/1/0/3" || ev.Reason != "hold time expired" || m.Text != "" {
			t.Errorf("message = %+v", m)
		}
		if *m != orig {
			t.Errorf("parsed %+v, built %+v", m, orig)
		}
	}
}

func TestLinkUpDownRoundTrip(t *testing.T) {
	orig := LinkUpDown("cpe-001", 7, ts(time.October, 20, 23, 59, 59, 1), "GigabitEthernet0/0/1", true)
	m, err := parseLine(orig.Render(), refTime)
	if err != nil {
		t.Fatal(err)
	}
	if ev := m.Link; ev.Type != EventLink || !ev.Up || ev.Interface != "GigabitEthernet0/0/1" || m.Text != "" {
		t.Errorf("message = %+v", m)
	}
}

func TestLineProtoRoundTrip(t *testing.T) {
	orig := LineProtoUpDown("cpe-001", 8, ts(time.June, 1, 1, 2, 3, 0), "GigabitEthernet0/0/1", false)
	m, err := parseLine(orig.Render(), refTime)
	if err != nil {
		t.Fatal(err)
	}
	if ev := m.Link; ev.Type != EventLineProto || ev.Up || m.Text != "" {
		t.Errorf("message = %+v", m)
	}
}

func TestParseYearResolution(t *testing.T) {
	// Study period Oct 2010 – Nov 2011: a December stamp seen from a
	// January reference belongs to the previous year.
	jan2011 := time.Date(2011, time.January, 10, 0, 0, 0, 0, time.UTC)
	m := LinkUpDown("r", 1, time.Date(2010, time.December, 30, 12, 0, 0, 0, time.UTC), "Gi0/0/0", false)
	got, err := parseLine(m.Render(), jan2011)
	if err != nil {
		t.Fatal(err)
	}
	if got.Timestamp.Year() != 2010 {
		t.Errorf("year = %d, want 2010", got.Timestamp.Year())
	}
	// And a January stamp seen from December belongs to the next year.
	dec2010 := time.Date(2010, time.December, 28, 0, 0, 0, 0, time.UTC)
	m2 := LinkUpDown("r", 2, time.Date(2011, time.January, 2, 3, 0, 0, 0, time.UTC), "Gi0/0/0", true)
	got2, err := parseLine(m2.Render(), dec2010)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Timestamp.Year() != 2011 {
		t.Errorf("year = %d, want 2011", got2.Timestamp.Year())
	}
}

func TestParseMalformed(t *testing.T) {
	bad := []string{
		"",
		"no pri at all",
		"<999>Oct 20 01:02:03 host 1: %X-1-Y: text",
		"<192>Oct 20 01:02:03 host 1: %X-1-Y: text",
		"<189>Oct 20 01:02:03 host 1:2: %X-1-Y: text",
		"<189>bad timestamp here host 1: %X-1-Y: t",
		"<189>Oct 20 01:02:03 ",
		"<189>Oct 20 01:02:03 host notanum: %X-1-Y: t",
		"<189>Oct 20 01:02:03 host 1: no mnemonic here",
	}
	for _, line := range bad {
		if _, err := parseLine(line, refTime); err == nil {
			t.Errorf("ParseBytes(%q) succeeded, want error", line)
		}
	}
}

func TestParseLinkEventRejectsOthers(t *testing.T) {
	const line = "<189>Mar  3 04:05:06 h 1: %SYS-5-CONFIG_I: Configured from console"
	m, err := parseLine(line, refTime)
	if err != nil {
		t.Fatal(err)
	}
	if m.Link != (LinkEvent{}) || m.Text != "Configured from console" || m.Render() != line[:26]+"Mar  3 04:05:06.000 UTC: "+line[26:] {
		t.Errorf("message = %+v, renders %q", m, m.Render())
	}
}

// TestParseAdjTextMalformed: a link-state mnemonic whose text does not
// read as its template is no link event, and its text is kept — also
// over a Message that held an event from the line before.
func TestParseAdjTextMalformed(t *testing.T) {
	tk := NewTokenizer()
	for _, text := range []string{
		"Adjacency to neighbor-without-iface Up, ok",
		"Adjacency to n (iface-unterminated Up",
		"Adjacency to n (i) Sideways, reason",
		"nonsense",
	} {
		var m Message
		good := msgPtr(AdjChange(DialectIOSXR, "h", 1, ts(time.May, 5, 5, 5, 5, 5), "n", "i", true, "r")).Render()
		if err := tk.ParseBytes([]byte(good), refTime, &m); err != nil || m.Link.Type != EventISISAdj {
			t.Fatalf("%+v, %v", m, err)
		}
		line := "<188>May  5 05:05:05 h 2: %ROUTING-ISIS-4-ADJCHANGE: " + text
		if err := tk.ParseBytes([]byte(line), refTime, &m); err != nil {
			t.Fatal(err)
		}
		if m.Link != (LinkEvent{}) || m.Text != text {
			t.Errorf("%q parsed to %+v", text, m)
		}
	}
}

// TestParseKeepsNonCanonicalLinkText: a link-state line that reads as
// its template but would not render back byte for byte keeps its text
// beside the event, so it renders as it arrived.
func TestParseKeepsNonCanonicalLinkText(t *testing.T) {
	for _, body := range []string{
		"CLNS-5-ADJCHANGE: Adjacency to n (i) Up, new adjacency",            // no "ISIS: "
		"CLNS-5-ADJCHANGE: ISIS: Adjacency to n (i) (L2) Up, new adjacency", // "(L2) " on IOS
		"ROUTING-ISIS-4-ADJCHANGE: Adjacency to n (i) Up, new adjacency",    // no "(L2) " on XR
		"ROUTING-ISIS-4-ADJCHANGE: Adjacency to n (i) (L2) Down",            // no reason clause
	} {
		line := "<189>Mar  3 04:05:06 h 1: Mar  3 04:05:06.000 UTC: %" + body
		m, err := parseLine(line, refTime)
		if err != nil {
			t.Fatal(err)
		}
		_, text, _ := strings.Cut(body, ": ")
		if m.Link.Type != EventISISAdj || m.Link.Neighbor != "n" || m.Link.Interface != "i" || m.Text != text {
			t.Errorf("%q parsed to %+v", body, m)
		}
		if got := m.Render(); got != line {
			t.Errorf("%q renders %q", line, got)
		}
	}
}

func TestPRIEncoding(t *testing.T) {
	m := &Message{Facility: Local7, Severity: Notice}
	if m.PRI() != 189 {
		t.Errorf("PRI = %d, want 189", m.PRI())
	}
	if !strings.HasPrefix(m.Render(), "<189>") {
		t.Errorf("render = %q", m.Render())
	}
}

func TestInterfaceNamesWithSpacesInDescription(t *testing.T) {
	// Neighbor hostnames may contain dots and dashes; parser must not
	// split on them.
	orig := AdjChange(DialectIOS, "h", 1, ts(time.May, 5, 5, 5, 5, 5),
		"svl-core-02.cenic.net", "TenGigE0/1/0/3.100", true, "new adjacency")
	m, err := parseLine(orig.Render(), refTime)
	if err != nil {
		t.Fatal(err)
	}
	if ev := m.Link; ev.Neighbor != "svl-core-02.cenic.net" || ev.Interface != "TenGigE0/1/0/3.100" {
		t.Errorf("event = %+v", ev)
	}
}
