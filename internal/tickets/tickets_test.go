package tickets

import (
	"testing"
	"time"

	"netfail/internal/topo"
	"netfail/internal/trace"
)

const link = topo.LinkID("a:p|b:p")

func at(h int) time.Time {
	return time.Date(2011, 3, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(h) * time.Hour)
}

func truth(startH, endH int) trace.Failure {
	return trace.Failure{Link: link, Start: at(startH), End: at(endH)}
}

func TestGenerateCoverage(t *testing.T) {
	var failures []trace.Failure
	// 200 long failures (2 days each) and 200 blips.
	for i := 0; i < 200; i++ {
		s := i * 100
		failures = append(failures,
			trace.Failure{Link: link, Start: at(s), End: at(s + 48)},
			trace.Failure{Link: link, Start: at(s + 60), End: at(s + 60).Add(5 * time.Second)},
		)
	}
	ts := Generate(1, failures, DefaultParams())
	if len(ts) < 180 || len(ts) > 200 {
		t.Errorf("tickets = %d, want ~196 (98%% of 200 long, no blips)", len(ts))
	}
	for _, tk := range ts {
		if tk.Closed.Before(tk.Opened) {
			t.Errorf("ticket %d closed before opened", tk.ID)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	failures := []trace.Failure{truth(0, 48), truth(100, 130)}
	a := Generate(7, failures, DefaultParams())
	b := Generate(7, failures, DefaultParams())
	if len(a) != len(b) {
		t.Fatal("nondeterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic ticket content")
		}
	}
}

func TestVerifyGenuineLongFailure(t *testing.T) {
	// A real 2-day outage with its ticket.
	real := truth(0, 48)
	ts := Generate(1, []trace.Failure{real}, Params{
		MinDuration: time.Minute, CoverageLong: 1, CoverageMedium: 1,
		OpenDelayMax: time.Minute, CloseSlackMax: time.Minute,
	})
	ix := NewIndex(ts)
	if !ix.Verify(real) {
		t.Error("genuine failure not verified")
	}
	// Syslog saw it slightly shifted: still verified.
	shifted := trace.Failure{Link: link, Start: real.Start.Add(time.Minute), End: real.End.Add(-time.Minute)}
	if !ix.Verify(shifted) {
		t.Error("slightly shifted failure not verified")
	}
}

func TestVerifyRejectsSpuriousMergedFailure(t *testing.T) {
	// Two real 10-minute outages a week apart, each ticketed; syslog
	// lost the intervening messages and reports one week-long outage.
	f1 := trace.Failure{Link: link, Start: at(0), End: at(0).Add(10 * time.Minute)}
	f2 := trace.Failure{Link: link, Start: at(168), End: at(168).Add(10 * time.Minute)}
	ts := Generate(1, []trace.Failure{f1, f2}, Params{
		MinDuration: time.Minute, CoverageLong: 1, CoverageMedium: 1,
		OpenDelayMax: time.Minute, CloseSlackMax: time.Minute,
	})
	ix := NewIndex(ts)
	spurious := trace.Failure{Link: link, Start: f1.Start, End: f2.End}
	if ix.Verify(spurious) {
		t.Error("week-long spurious failure verified against 10-minute tickets")
	}
}

func TestVerifyWrongLink(t *testing.T) {
	real := truth(0, 48)
	ix := NewIndex(Generate(1, []trace.Failure{real}, Params{
		MinDuration: time.Minute, CoverageLong: 1, CoverageMedium: 1,
		OpenDelayMax: time.Minute, CloseSlackMax: time.Minute,
	}))
	other := trace.Failure{Link: topo.LinkID("x:p|y:p"), Start: real.Start, End: real.End}
	if ix.Verify(other) {
		t.Error("failure on unrelated link verified")
	}
}

// TestSearch: the index finds a link's ticket by time — a failure
// inside a ticketed outage verifies, one between tickets does not.
func TestSearch(t *testing.T) {
	ts := Generate(1, []trace.Failure{truth(0, 48), truth(200, 210)}, Params{
		MinDuration: time.Minute, CoverageLong: 1, CoverageMedium: 1,
		OpenDelayMax: time.Minute, CloseSlackMax: time.Minute,
	})
	ix := NewIndex(ts)
	if !ix.Verify(trace.Failure{Link: link, Start: at(10), End: at(20)}) {
		t.Error("a failure inside a ticketed outage did not verify")
	}
	if ix.Verify(trace.Failure{Link: link, Start: at(100), End: at(150)}) {
		t.Error("a failure between tickets verified")
	}
	if ix.Len() != 2 {
		t.Errorf("Len = %d", ix.Len())
	}
}

func TestDefaultParamsSane(t *testing.T) {
	p := DefaultParams()
	if p.MinDuration <= 0 || p.CoverageLong <= p.CoverageMedium || p.CoverageLong > 1 {
		t.Errorf("params = %+v", p)
	}
}

func TestGenerateEmptyTruth(t *testing.T) {
	if got := Generate(1, nil, DefaultParams()); len(got) != 0 {
		t.Errorf("tickets from nothing: %v", got)
	}
	ix := NewIndex(nil)
	if ix.Len() != 0 || ix.Verify(truth(0, 48)) {
		t.Error("empty index misbehaves")
	}
}
