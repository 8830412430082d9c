package netfail

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"testing"
	"time"

	"netfail/internal/api"
	"netfail/internal/report"
	"netfail/internal/store"
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
// listener (2724 measured): one record per router and link, its
// routers' fragment lists, the listener's hostname table and one copy
// of each name, plus transition growth; nothing per LSP. The race
// detector's own allocations (about a thousand here) are not the
// listener's.
func TestListenerReplayAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside the replay")
	}
	op, _ := benchListenerReplay(t)
	pinAllocs(t, "a one-month replay through a fresh listener", 3000, op)
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

// TestMarkdownAllocBudget: the markdown report of the 13-month study
// rendered from the study's tables (1 measured: the scorecard appends
// every row into one buffer; 574 when each cell was a formatted
// string, 18,883 when Markdown computed the tables itself): it
// formats, and computes nothing. The race detector's own allocations
// are not the renderer's.
func TestMarkdownAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside the formatting")
	}
	tables, err := benchFullStudy(t).Tables(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pinAllocs(t, "the markdown report of the 13-month study", 4, func() {
		if err := report.Markdown(io.Discard, tables); err != nil {
			t.Fatal(err)
		}
	})
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
// query on a window that holds records, failures plus transitions (30
// allocations, 4,640 bytes measured): two segment opens, one frame
// buffer each for the postings read by offset, the result slices. The
// byte ceiling is the pin on the read path's proportionality — a
// reader that takes its 256 KB bulk window per seek is 528,697 bytes
// here; TestStoreWindowQueryWarmBytes holds the postings fetch to 8 KB.
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

// discardResponse is an http.ResponseWriter that keeps nothing, so a
// pin counts the handler's allocations and not a recorder's copy.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardResponse) WriteHeader(int)             {}

// TestStoreScanThroughMuxWarmAllocBudget: a warm all-links transitions
// scan of the month store served through the /api/v1 mux, over 30 days
// and over 3, costs the request's parsing and one segment reader, and
// nothing per record: the records stream from the store into a pooled
// body, through a pooled window. 22 allocations and 1,592 bytes
// measured over 30 days; a window allocated per scan was 255,594 bytes
// over 30 days and 42,308 over 3, and a record slice and a body grown
// from nil were 71 allocations and 8,896,035 bytes on the 30-day scan.
func TestStoreScanThroughMuxWarmAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("spills and analyzes a month-long campaign")
	}
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops buffers it is handed")
	}
	_, storeDir, _, _ := benchCaptureSetup(t)
	s, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	mux := api.NewMux(api.Options{Store: s})
	start := s.Manifest().Start
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct{ days, ceiling int }{{30, 32 << 10}, {3, 32 << 10}} {
		days := c.days
		what := fmt.Sprintf("a warm %d-day transitions scan through the mux", days)
		req := httptest.NewRequest(http.MethodGet, "/api/v1/transitions?"+url.Values{
			"from": {start.Format(time.RFC3339)}, "to": {start.AddDate(0, 0, days).Format(time.RFC3339)},
		}.Encode(), nil)
		w := &discardResponse{h: http.Header{}}
		op := func() {
			mux.ServeHTTP(w, req)
			if cl := w.h.Get("Content-Length"); len(cl) < 5 { // 10 KB or more
				t.Fatalf("%s: a body of %s bytes is too small to pin", what, cl)
			}
		}
		op() // warm: the pool's buffer grows to the body once
		pinAllocs(t, what, 32, op)

		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > uint64(c.ceiling) {
			t.Errorf("%s allocates %d bytes, ceiling is %d", what, per, c.ceiling)
		}
	}
}

// TestSimulateAllocsPerEvent: BenchmarkSimulateMonth's campaign, in
// allocations per record the capture retains (3.47 measured, 4.90
// while each syslog message cost its Message and its text, 18.71
// before the event loop was rebuilt), held to that plus a tenth. The
// topology, the config archive and the workload are in the figure
// beside the event loop, whose own share is one per LSP (its wire
// bytes), the closures that carry a failure between its events and
// one per 256 delivered syslog messages (the slab that stores them).
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
	if per := avg / float64(records); per > 3.8 {
		t.Errorf("a month's simulation allocates %.0f times for %d records, %.2f per record; budget is 3.8", avg, records, per)
	}
}
