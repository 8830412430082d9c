package syslog

import (
	"io"
	"testing"
	"time"
)

// Allocation pins companion to the benchmarks: ReportAllocs shows a
// regression only to someone reading benchmark output, while these
// fail `go test` outright. The hot paths are pinned at zero steady-
// state allocations per record — the tokenizer keeps fields as
// subslices, and ParseBytes reads the link event and materializes
// every string through warm intern tables into a caller-owned
// Message. Any new allocation on a parse path is a test failure.

func allocTestLine() string {
	return msgPtr(AdjChange(DialectIOSXR, "riv-core-01", 421,
		time.Date(2011, 3, 3, 4, 5, 6, 789e6, time.UTC),
		"cpe-001", "TenGigE0/1/0/3", false, "hold time expired")).Render()
}

func TestParseBytesAllocBudget(t *testing.T) {
	line := []byte(allocTestLine())
	ref := time.Date(2011, 3, 1, 0, 0, 0, 0, time.UTC)
	tk := NewTokenizer()
	var m Message
	// Warm the intern tables: the first sightings allocate, the
	// steady state must not.
	for i := 0; i < 8; i++ {
		if err := tk.ParseBytes(line, ref, &m); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := tk.ParseBytes(line, ref, &m); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("warm ParseBytes allocates %.1f times per message, budget is 0", avg)
	}
}

func TestParseErrorAllocBudget(t *testing.T) {
	// Corrupt captures make parse errors routine; the reject path must
	// not allocate either (preconstructed errors, no annotations).
	ref := time.Date(2011, 3, 1, 0, 0, 0, 0, time.UTC)
	bad := []byte("<189>Mar 13 99:99:99 riv-core-01 421: %LINK-3-UPDOWN: x")
	tk := NewTokenizer()
	var m Message
	avg := testing.AllocsPerRun(100, func() {
		if err := tk.ParseBytes(bad, ref, &m); err == nil {
			t.Fatal("bad line parsed")
		}
	})
	if avg != 0 {
		t.Errorf("ParseBytes reject path allocates %.1f times per message, budget is 0", avg)
	}
}

// TestParseLinkEventAllocBudget: a warm parse of a link-state line
// into a fresh Message, discarded, allocates nothing.
func TestParseLinkEventAllocBudget(t *testing.T) {
	line := []byte(msgPtr(AdjChange(DialectIOS, "riv-core-01", 1,
		time.Date(2011, 3, 3, 4, 5, 6, 0, time.UTC),
		"cpe-001", "GigabitEthernet0/0/1", true, "new adjacency")).Render())
	ref := time.Date(2011, 3, 1, 0, 0, 0, 0, time.UTC)
	tk := NewTokenizer()
	parse := func() {
		var m Message
		if err := tk.ParseBytes(line, ref, &m); err != nil || m.Link.Type != EventISISAdj {
			t.Fatalf("%+v, %v", m, err)
		}
	}
	parse() // warm the intern tables
	if avg := testing.AllocsPerRun(100, parse); avg != 0 {
		t.Errorf("warm ParseBytes of a link-state line into a fresh Message allocates %.1f times per message, budget is 0", avg)
	}
}

// TestParseLinkEventIntoAllocBudget: every template, and a link-state
// line whose text is kept because it is not canonical, parse warm into
// one reused Message without allocating.
func TestParseLinkEventIntoAllocBudget(t *testing.T) {
	var lines [][]byte
	for _, m := range []Message{
		AdjChange(DialectIOS, "riv-core-01", 1,
			time.Date(2011, 3, 3, 4, 5, 6, 0, time.UTC),
			"cpe-001", "GigabitEthernet0/0/1", true, "new adjacency"),
		AdjChange(DialectIOSXR, "riv-core-01", 2,
			time.Date(2011, 3, 3, 4, 5, 7, 0, time.UTC),
			"cpe-001", "TenGigE0/1/0/3", false, "hold time expired"),
		LinkUpDown("riv-core-01", 3, time.Date(2011, 3, 3, 4, 5, 8, 0, time.UTC), "POS1/0", false),
		LineProtoUpDown("riv-core-01", 4, time.Date(2011, 3, 3, 4, 5, 9, 0, time.UTC), "POS1/0", false),
	} {
		lines = append(lines, m.AppendRender(nil))
	}
	lines = append(lines, []byte("<189>Mar  3 04:05:10 riv-core-01 5: %CLNS-5-ADJCHANGE: Adjacency to cpe-001 (POS1/0) Up"))
	ref := time.Date(2011, 3, 1, 0, 0, 0, 0, time.UTC)
	tk := NewTokenizer()
	var m Message
	parseAll := func() {
		for _, line := range lines {
			if err := tk.ParseBytes(line, ref, &m); err != nil || m.Link.Type == EventOther {
				t.Fatalf("%q: %+v, %v", line, m, err)
			}
		}
	}
	parseAll()
	if avg := testing.AllocsPerRun(100, parseAll); avg != 0 {
		t.Errorf("warm ParseBytes of the link-state lines allocates %.1f times per batch, budget is 0", avg)
	}
}

// TestAppendRenderAllocBudget: the spill writer renders every message
// through one reused buffer, so a render into a dst that already has
// the capacity allocates nothing.
func TestAppendRenderAllocBudget(t *testing.T) {
	m := AdjChange(DialectIOSXR, "riv-core-01", 421,
		time.Date(2011, 3, 3, 4, 5, 6, 789e6, time.UTC),
		"cpe-001", "TenGigE0/1/0/3", false, "hold time expired")
	dst := m.AppendRender(nil)
	if avg := testing.AllocsPerRun(100, func() { dst = m.AppendRender(dst[:0]) }); avg != 0 {
		t.Errorf("AppendRender into a reused buffer allocates %.1f times per message, budget is 0", avg)
	}
}

// TestWriteLogAllocBudget: WriteLog renders every line into one reused
// buffer, so a call costs its bufio.Writer and the buffer's growth,
// whatever the number of messages.
func TestWriteLogAllocBudget(t *testing.T) {
	msgs := make([]*Message, 1000)
	for i := range msgs {
		msgs[i] = msgPtr(AdjChange(DialectIOSXR, "riv-core-01", uint64(i),
			time.Date(2011, 3, 3, 4, 5, i%60, 789e6, time.UTC),
			"cpe-001", "TenGigE0/1/0/3", i%2 == 0, "hold time expired"))
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := WriteLog(io.Discard, msgs); err != nil {
			t.Fatal(err)
		}
	}); avg > 4 {
		t.Errorf("WriteLog of %d messages allocates %.0f times per call, budget is 4", len(msgs), avg)
	}
}

// TestSyslogConstructorsAllocBudget: the simulator builds every
// message through these three, which fill fields, build no text and
// return the Message by value for the caller to store, so none
// allocates.
func TestSyslogConstructorsAllocBudget(t *testing.T) {
	ts := time.Date(2011, 3, 3, 4, 5, 6, 789e6, time.UTC)
	var sink []Message
	for name, build := range map[string]func() Message{
		"AdjChange/IOS": func() Message {
			return AdjChange(DialectIOS, "cpe-001", 7, ts, "riv-core-01", "GigabitEthernet0/0/1", true, "new adjacency")
		},
		"AdjChange/IOSXR": func() Message {
			return AdjChange(DialectIOSXR, "riv-core-01", 7, ts, "cpe-001", "TenGigE0/1/0/3", false, "hold time expired")
		},
		"LinkUpDown":      func() Message { return LinkUpDown("riv-core-01", 7, ts, "TenGigE0/1/0/3", false) },
		"LineProtoUpDown": func() Message { return LineProtoUpDown("riv-core-01", 7, ts, "TenGigE0/1/0/3", true) },
	} {
		sink = make([]Message, 1)
		if avg := testing.AllocsPerRun(100, func() { sink[0] = build() }); avg != 0 {
			t.Errorf("%s allocates %.1f times per message, budget is 0", name, avg)
		}
	}
}
