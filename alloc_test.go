package netfail

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// Allocation pins on the pipeline's hot paths. Each runs the op of the
// Benchmark* function of the same name (bench_test.go,
// store_bench_test.go) on that benchmark's fixture and warm-up, so
// `go test` fails where -benchmem would only have shown a number. The
// budgets are steady-state figures a little above the measured count:
// one allocation per record, LSP or failure boundary creeping back
// into the pinned loop overshoots every one of them.

func pinAllocs(t *testing.T, what string, budget float64, op func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(10, op); avg > budget {
		t.Errorf("%s allocates %.0f times, budget is %.0f", what, avg, budget)
	}
}

// TestSyslogExtractAllocBudget pins the full steady-state syslog
// extraction stage — link-event decode, topology attribution, merge —
// to the observability stage span's fixed cost (4 measured), 0 per
// message: the streams are sized from the messages before any is
// added, so a per-message allocation added anywhere along the
// extraction path adds one per message of the month.
func TestSyslogExtractAllocBudget(t *testing.T) {
	op, _ := benchSyslogExtract(t)
	pinAllocs(t, "steady-state ExtractInto over a month of syslog", 4, op)
}

// TestDriverSyslogAllocBudget pins the capture path — raw line,
// tokenizer, extractor, no store — through one warm Driver: nothing per
// line, only the growth of the extractor's transition slices as the
// month is pushed again without a Finish (4 measured). One Message
// allocated per line would be a thousand times the budget. It has no
// Benchmark twin; the month is benchSyslogExtract's.
func TestDriverSyslogAllocBudget(t *testing.T) {
	camp, mined := benchMonthMined(t)
	lines := make([][]byte, len(camp.Syslog))
	for i, m := range camp.Syslog {
		lines[i] = m.AppendRender(nil)
	}
	d, err := NewDriver(&Study{Campaign: camp, Mined: mined}, false)
	if err != nil {
		t.Fatal(err)
	}
	op := func() {
		for _, line := range lines {
			if err := d.Syslog(line); err != nil {
				t.Fatal(err)
			}
		}
	}
	op() // warm the intern tables
	pinAllocs(t, "a month of syslog lines pushed through a warm Driver", 6, op)
}

// TestListenerReplayAllocBudget: a month's LSPs through a fresh
// listener (4776 measured): one record per router, link and stored LSP,
// the listener's hostname table and one copy of each name, plus
// transition growth; nothing per LSP. The race detector's own
// allocations (about a thousand here) are not the listener's.
func TestListenerReplayAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside the replay")
	}
	op, _ := benchListenerReplay(t)
	pinAllocs(t, "a one-month replay through a fresh listener", 5000, op)
}

// TestTable5AllocBudget: 13 months (342 measured): the sample slices
// and summaries; nothing per bootstrap round.
func TestTable5AllocBudget(t *testing.T) {
	s := benchFullStudy(t)
	pinAllocs(t, "Table 5 over the 13-month study", 690, func() { s.Analysis.Table5() })
}

// TestTable7AllocBudget: 13 months (4408 measured): one graph, two
// sweeps sharing one isolation memo, and per isolation event its
// record and down-link snapshot; nothing per failure boundary, and
// nothing per memo hit.
func TestTable7AllocBudget(t *testing.T) {
	s := benchFullStudy(t)
	pinAllocs(t, "Table 7 over the 13-month study", 6200, func() { s.Analysis.Table7() })
}

// TestIsolationSweepAllocBudget: the IS-IS half of Table 7 (1559
// measured).
func TestIsolationSweepAllocBudget(t *testing.T) {
	pinAllocs(t, "the IS-IS isolation sweep over the 13-month study", 1650, benchIsolationSweep(t))
}

// TestFullReportAllocBudget: every section of the 13-month report
// computed from one set of views and rendered (20181 measured), about
// half of it the knee sweep's candidate lists. The race detector's
// own allocations in the section fan-out are not the report's.
func TestFullReportAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside the fan-out")
	}
	op := benchFullReport(t, benchFullStudy(t).Analysis.In.Parallelism)
	pinAllocs(t, "the full report over the 13-month study", 21000, op)
}

// TestWindowSweepAllocBudget: the knee sweep (10623 measured) allocates
// one candidate list per syslog failure while indexing for its widest
// window and nothing per window evaluated, so the report's eleven
// windows cost exactly what their widest alone does.
func TestWindowSweepAllocBudget(t *testing.T) {
	s := benchFullStudy(t)
	widest := func() { s.Analysis.WindowKnee([]time.Duration{60 * time.Second}) }
	pinAllocs(t, "a one-window sweep over the 13-month study", 11600, widest)
	eleven := func() { s.Analysis.WindowKnee(nil) }
	pinAllocs(t, "the eleven-window knee sweep over the 13-month study", testing.AllocsPerRun(10, widest), eleven)
}

// TestStoreWindowQueryWarmAllocBudget: a warm one-day/one-link store
// query on a window that holds records, failures plus transitions (26
// allocations, 43,936 bytes measured): two segment opens, two reader
// windows sized to one index stride each, the result slices. The byte
// ceiling is the pin on the read path's proportionality — a reader
// that takes its 256 KB bulk window per seek is 528,697 bytes here.
// Skipped under -short like the other tests that spill a campaign to
// disk.
func TestStoreWindowQueryWarmAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("spills and analyzes a month-long campaign")
	}
	op := benchStoreWindowQuery(t)
	pinAllocs(t, "a warm one-day, one-link failures+transitions query", 30, op)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 64<<10 {
		t.Errorf("a warm one-day, one-link failures+transitions query allocates %d bytes, ceiling is %d", per, 64<<10)
	}
}

// TestSimulateAllocsPerEvent: BenchmarkSimulateMonth's campaign, in
// allocations per record the capture retains (5.17 measured, 18.71
// before the event loop was rebuilt), held to that plus a tenth. The
// topology, the config archive and the workload are in the figure
// beside the event loop, whose own share is two per syslog message
// built (Message and Text), one per LSP (its wire bytes) and the
// closures that carry a failure between its events.
func TestSimulateAllocsPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside the simulator")
	}
	var records int
	avg := testing.AllocsPerRun(3, func() {
		camp, err := Simulate(context.Background(), benchMonthConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		records = len(camp.Syslog) + len(camp.LSPLog)
	})
	if per := avg / float64(records); per > 5.7 {
		t.Errorf("a month's simulation allocates %.0f times for %d records, %.2f per record; budget is 5.7", avg, records, per)
	}
}
