package syslog

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestWriteReadLogRoundTrip(t *testing.T) {
	var messages []*Message
	for i := 0; i < 50; i++ {
		messages = append(messages, msgPtr(AdjChange(DialectIOS, "riv-core-01", uint64(i),
			ts(time.April, 1+i%27, i%24, i%60, i%60, i%1000), "cpe-002", "Gi0/0/1", i%2 == 0, "test")))
	}
	var buf bytes.Buffer
	if err := WriteLog(&buf, messages); err != nil {
		t.Fatal(err)
	}
	got, bad, err := ReadLog(&buf, refTime)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Errorf("bad lines = %d", bad)
	}
	if len(got) != len(messages) {
		t.Fatalf("got %d messages, want %d", len(got), len(messages))
	}
	for i := range got {
		if got[i].Render() != messages[i].Render() {
			t.Errorf("message %d: %q != %q", i, got[i].Render(), messages[i].Render())
		}
	}
}

func TestReadLogRollingYearAcrossThirteenMonths(t *testing.T) {
	// A 13-month archive (the study period): messages more than six
	// months past the start must still land in the right year.
	times := []time.Time{
		time.Date(2010, time.October, 20, 12, 0, 0, 0, time.UTC),
		time.Date(2011, time.January, 5, 12, 0, 0, 0, time.UTC),
		time.Date(2011, time.June, 15, 12, 0, 0, 0, time.UTC),
		time.Date(2011, time.November, 10, 12, 0, 0, 0, time.UTC),
	}
	var buf bytes.Buffer
	var msgs []*Message
	for i, ts := range times {
		msgs = append(msgs, msgPtr(LinkUpDown("r", uint64(i), ts, "Gi0/0/0", i%2 == 0)))
	}
	if err := WriteLog(&buf, msgs); err != nil {
		t.Fatal(err)
	}
	got, bad, err := ReadLog(&buf, times[0])
	if err != nil || bad != 0 {
		t.Fatalf("err=%v bad=%d", err, bad)
	}
	for i, m := range got {
		if !m.Timestamp.Equal(times[i]) {
			t.Errorf("message %d resolved to %v, want %v", i, m.Timestamp, times[i])
		}
	}
}

func TestReadLogSkipsBadLines(t *testing.T) {
	log := strings.Join([]string{
		msgPtr(LinkUpDown("r", 1, ts(time.May, 1, 0, 0, 0, 0), "Gi0/0/0", true)).Render(),
		"this line is noise",
		msgPtr(LinkUpDown("r", 2, ts(time.May, 1, 0, 0, 1, 0), "Gi0/0/0", false)).Render(),
		"",
	}, "\n")
	got, bad, err := ReadLog(strings.NewReader(log), refTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || bad != 1 {
		t.Errorf("got %d messages, %d bad; want 2, 1", len(got), bad)
	}
}
