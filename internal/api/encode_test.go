package api

import (
	"bytes"
	"testing"
	"time"

	"netfail/internal/store"
	"netfail/internal/topo"
	"netfail/internal/trace"
)

// FuzzAppendTimeMatchesFormat: appendTime's digit-by-digit UTC path
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
			got := appendTime([]byte{'{'}, "t", tm)
			want := append(tm.AppendFormat([]byte(`{"t":"`), time.RFC3339Nano), '"')
			if !bytes.Equal(got, want) {
				t.Fatalf("%d s %d ns in %s: appendTime wrote %s, AppendFormat %s", sec, nsec, tm.Location(), got, want)
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
			trace.KindISReach.String(), trace.KindIPReach.String(), trace.KindSNMP.String()}},
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
