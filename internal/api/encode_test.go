package api

import (
	"bytes"
	"testing"
	"time"

	"netfail/internal/store"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// FuzzAppendTimeMatchesFormat: appendStamp's digit-by-digit UTC path
// writes what time.Time.AppendFormat writes, and every other time
// takes AppendFormat itself.
func FuzzAppendTimeMatchesFormat(f *testing.F) {
	for _, seed := range [][2]int64{
		{0, 0},
		{1293937445, 7000000},          // a stored millisecond
		{1293937445, 120000000},        // trailing zero digits
		{1293937445, 123456789},        // every digit
		{-62167219200, 0},              // 0000-01-01
		{-62135596800, 1},              // 0001-01-01, one nanosecond
		{253402300799, 999999999},      // the last instant of 9999
		{253402300800, 0},              // 10000-01-01
		{-62167219201, 0},              // year -1
		{1<<62 - 1, -(1<<62 - 1) + 17}, // far outside both
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, sec, nsec int64) {
		for _, tm := range []time.Time{time.Unix(sec, nsec).UTC(), time.Unix(sec, nsec).In(time.FixedZone("UTC", 0))} {
			got := appendStamp([]byte(`{"t":"`), tm)
			want := append(tm.AppendFormat([]byte(`{"t":"`), time.RFC3339Nano), '"')
			if !bytes.Equal(got, want) {
				t.Fatalf("%d s %d ns in %s: appendStamp wrote %s, AppendFormat %s", sec, nsec, tm.Location(), got, want)
			}
		}
	})
}

// TestEnumNamesNeedNoEscape: every name appendName writes without
// appendString's escape scan is one appendString would have written
// as it is.
func TestEnumNamesNeedNoEscape(t *testing.T) {
	for _, c := range []struct {
		enum  string
		names []string
	}{
		{"source", []string{store.SourceSyslog.String(), store.SourceISIS.String()}},
		{"stream", []string{store.StreamSyslogAdj.String(), store.StreamSyslogPerRouter.String(),
			store.StreamSyslogPhysical.String(), store.StreamISReach.String(), store.StreamIPReach.String()}},
		{"dir", []string{trace.Down.String(), trace.Up.String()}},
		{"kind", []string{trace.KindISISAdj.String(), trace.KindPhysical.String(), trace.KindLineProto.String(),
			trace.KindISReach.String(), trace.KindIPReach.String()}},
		{"class", []string{topo.CoreLink.String(), topo.CPELink.String()}},
	} {
		for _, name := range c.names {
			got, want := appendName([]byte{'{'}, c.enum, name), appendString([]byte{'{'}, c.enum, name)
			if !bytes.Equal(got, want) {
				t.Errorf("%s %q needs escaping: appendName wrote %s, appendString %s", c.enum, name, got, want)
			}
		}
	}
}

// FuzzDayCacheMatchesFormat: a body's day cache, driven through a
// sequence of times — steps of a nanosecond to a year, forwards and
// backwards, across midnight and out of the years 0-9999, in and out
// of UTC — writes each as time.Time.AppendFormat does.
func FuzzDayCacheMatchesFormat(f *testing.F) {
	steps := [...]time.Duration{
		time.Nanosecond, time.Millisecond, time.Second, time.Minute, time.Hour, 24 * time.Hour, 366 * 24 * time.Hour,
		-time.Nanosecond, -time.Millisecond, -time.Second, -time.Minute, -time.Hour, -24 * time.Hour, -366 * 24 * time.Hour,
		1234567 * time.Microsecond, -(7*time.Hour + 89*time.Millisecond),
	}
	for _, seed := range []struct {
		sec, nsec int64
		walk      []byte
	}{
		{1293926399, 999999999, []byte{0, 7, 0, 7}},                 // a nanosecond either side of midnight
		{1293926399, 0, []byte{2, 2, 9, 9, 2}},                      // whole seconds across midnight, both ways
		{1293926399, 998000000, []byte{1, 1, 1, 8, 8, 8}},           // milliseconds across midnight, both ways
		{1293937445, 7000000, []byte{14, 15, 5, 12, 3, 10}},         // a stored millisecond, hours and days away
		{253402300799, 999999999, []byte{0, 7, 7, 0, 0}},            // into the year 10000 and back
		{-62167219200, 0, []byte{7, 0, 9, 2}},                       // out of the year 0 and back
		{-1, 500000, []byte{2, 9, 9, 5}},                            // 1969: a day that begins at a negative second
		{1293937445, 123456789, []byte{16, 16 + 5, 5, 16 + 12, 12}}, // into a zone and out
	} {
		f.Add(seed.sec, seed.nsec, seed.walk)
	}
	zone := time.FixedZone("", -8*3600)
	f.Fuzz(func(t *testing.T, sec, nsec int64, walk []byte) {
		var c dayCache
		tm := time.Unix(sec, nsec).UTC()
		for i := 0; i <= len(walk); i++ {
			if i > 0 {
				// A step's low four bits pick its size, the next its
				// zone: UTC, or 8 hours west.
				tm = tm.Add(steps[walk[i-1]%16]).UTC()
				if walk[i-1]&16 != 0 {
					tm = tm.In(zone)
				}
			}
			got := c.appendStamp([]byte(`{"t":"`), tm)
			want := append(tm.AppendFormat([]byte(`{"t":"`), time.RFC3339Nano), '"')
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d, %s: the day cache wrote %s, AppendFormat %s", i, tm, got, want)
			}
		}
	})
}
