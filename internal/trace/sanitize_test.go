package trace

import (
	"bytes"
	"testing"
	"time"
)

func TestSanitizeOfflineWindows(t *testing.T) {
	failures := []Failure{
		fl(linkA, 100, 200),
		fl(linkA, 1000, 1100), // overlaps the window
		fl(linkB, 5000, 5010),
	}
	offline := []Interval{{Start: at(1050), End: at(1060)}}
	rep := Sanitize(failures, offline, 0, nil)
	if rep.RemovedOffline != 1 {
		t.Errorf("removed = %d, want 1", rep.RemovedOffline)
	}
	if len(rep.Kept) != 2 {
		t.Errorf("kept = %d, want 2", len(rep.Kept))
	}
}

func TestSanitizeLongFailureVerification(t *testing.T) {
	day := int(24 * time.Hour / time.Second)
	failures := []Failure{
		fl(linkA, 0, 100),         // short: untouched
		fl(linkA, 200, 200+2*day), // long: verified true
		fl(linkB, 0, 3*day),       // long: verified false
	}
	verify := func(f Failure) bool { return f.Link == linkA }
	rep := Sanitize(failures, nil, LongFailureThreshold, verify)
	if rep.LongChecked != 2 {
		t.Errorf("checked = %d, want 2", rep.LongChecked)
	}
	if rep.LongRemoved != 1 {
		t.Errorf("removed = %d, want 1", rep.LongRemoved)
	}
	if rep.LongRemovedTime != 3*24*time.Hour {
		t.Errorf("removed time = %v", rep.LongRemovedTime)
	}
	if len(rep.Kept) != 2 {
		t.Errorf("kept = %d, want 2", len(rep.Kept))
	}
}

func TestSanitizeNilVerifyKeepsLong(t *testing.T) {
	failures := []Failure{fl(linkA, 0, int(48*time.Hour/time.Second))}
	rep := Sanitize(failures, nil, LongFailureThreshold, nil)
	if len(rep.Kept) != 1 || rep.LongChecked != 1 || rep.LongRemoved != 0 {
		t.Errorf("rep = %+v", rep)
	}
}

func TestTotalDowntime(t *testing.T) {
	failures := []Failure{fl(linkA, 0, 10), fl(linkB, 100, 130)}
	if got := TotalDowntime(failures); got != 40*time.Second {
		t.Errorf("downtime = %v, want 40s", got)
	}
}

func TestIntervalContains(t *testing.T) {
	iv := Interval{Start: at(10), End: at(20)}
	if !iv.Contains(at(10)) || !iv.Contains(at(19)) {
		t.Error("closed start / interior membership wrong")
	}
	if iv.Contains(at(20)) || iv.Contains(at(9)) {
		t.Error("open end / exterior membership wrong")
	}
	if iv.Duration() != 10*time.Second {
		t.Errorf("duration = %v", iv.Duration())
	}
}

// TestTransitionsIORoundTrip pins the export format byte for byte:
// netfail-analyze -export and netfail-sim -truth write it, and a
// downstream tool splitting its lines must keep reading them.
func TestTransitionsIORoundTrip(t *testing.T) {
	ts := []Transition{
		{Time: at(100), Link: linkA, Dir: Down, Kind: KindISISAdj, Reporter: "a"},
		{Time: at(101), Link: linkA, Dir: Up, Kind: KindISReach, Reporter: "b"},
		{Time: at(102), Link: linkB, Dir: Down, Kind: KindPhysical, Reporter: "c"},
		{Time: at(103), Link: linkB, Dir: Up, Kind: KindIPReach, Reporter: "d"},
		{Time: at(104), Link: linkB, Dir: Down, Kind: KindLineProto, Reporter: "e"},
	}
	const want = "100000 down isis-adj a:p1|b:p1 a\n" +
		"101000 up is-reach a:p1|b:p1 b\n" +
		"102000 down physical a:p2|c:p1 c\n" +
		"103000 up ip-reach a:p2|c:p1 d\n" +
		"104000 down lineproto a:p2|c:p1 e\n"
	var buf bytes.Buffer
	if err := WriteTransitions(&buf, ts); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Errorf("WriteTransitions:\n got %q\nwant %q", got, want)
	}
}
