package syslog

import (
	"testing"
	"time"
)

func BenchmarkRender(b *testing.B) {
	b.ReportAllocs()
	m := AdjChange(DialectIOSXR, "riv-core-01", 421,
		time.Date(2011, 3, 3, 4, 5, 6, 789e6, time.UTC),
		"cpe-001", "TenGigE0/1/0/3", false, "hold time expired")
	for i := 0; i < b.N; i++ {
		if m.Render() == "" {
			b.Fatal("empty")
		}
	}
}

// BenchmarkParseBytes is the zero-allocation wire path: one reused
// Message, warm intern tables, input straight from a byte buffer.
func BenchmarkParseBytes(b *testing.B) {
	b.ReportAllocs()
	line := []byte(msgPtr(AdjChange(DialectIOSXR, "riv-core-01", 421,
		time.Date(2011, 3, 3, 4, 5, 6, 789e6, time.UTC),
		"cpe-001", "TenGigE0/1/0/3", false, "hold time expired")).Render())
	ref := time.Date(2011, 3, 1, 0, 0, 0, 0, time.UTC)
	tk := NewTokenizer()
	var m Message
	b.SetBytes(int64(len(line)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tk.ParseBytes(line, ref, &m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1, "msgs/op")
}

// BenchmarkParseLinkEvent is the link-state read inside ParseBytes: an
// IOS adjacency line into one reused Message, warm intern tables.
func BenchmarkParseLinkEvent(b *testing.B) {
	b.ReportAllocs()
	line := msgPtr(AdjChange(DialectIOS, "riv-core-01", 1,
		time.Date(2011, 3, 3, 4, 5, 6, 0, time.UTC),
		"cpe-001", "GigabitEthernet0/0/1", true, "new adjacency")).AppendRender(nil)
	ref := time.Date(2011, 3, 1, 0, 0, 0, 0, time.UTC)
	tk := NewTokenizer()
	var m Message
	// Warm once so the intern table's first-sight symbol insertions
	// land outside the measured region: the steady state is 0 allocs.
	if err := tk.ParseBytes(line, ref, &m); err != nil || m.Link.Type != EventISISAdj {
		b.Fatal(m, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tk.ParseBytes(line, ref, &m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1, "msgs/op")
}
