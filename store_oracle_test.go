package netfail

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"netfail/internal/obs"
	"netfail/internal/store"
	"netfail/internal/trace"
)

// The store is a cache of pipeline answers, so its correctness bar is
// an oracle: every query answer must be value-identical to computing
// the same answer fresh from the analysis. Comparison goes through
// JSON so time.Time equality is exact wire equality, not
// monotonic-clock-sensitive struct equality.

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// compareJSON fails with the first point of divergence instead of
// dumping two full documents.
func compareJSON(t *testing.T, what string, got, want any) {
	t.Helper()
	g, w := mustJSON(t, got), mustJSON(t, want)
	if g == w {
		return
	}
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	start := i - 80
	if start < 0 {
		start = 0
	}
	end := func(s string) string {
		if i+80 < len(s) {
			return s[start : i+80]
		}
		return s[start:]
	}
	t.Errorf("%s diverge from pipeline oracle at byte %d:\n got …%s…\nwant …%s…", what, i, end(g), end(w))
}

// oracleFailures recomputes the store's failure list from the
// analysis — the same construction the writer uses, re-derived here
// so a writer bug cannot hide behind its own output.
func oracleFailures(a *Analysis) []store.FailureRecord {
	recs := make([]store.FailureRecord, 0, len(a.SyslogFailures)+len(a.ISISFailures))
	for _, f := range a.SyslogFailures {
		recs = append(recs, store.FailureRecord{Source: store.SourceSyslog, Link: f.Link, Start: f.Start, End: f.End})
	}
	for _, f := range a.ISISFailures {
		recs = append(recs, store.FailureRecord{Source: store.SourceISIS, Link: f.Link, Start: f.Start, End: f.End})
	}
	store.SortFailureRecords(recs)
	return recs
}

func oracleTransitions(a *Analysis) []store.TransitionRecord {
	var recs []store.TransitionRecord
	add := func(st store.Stream, ts []trace.Transition) {
		for _, tr := range ts {
			recs = append(recs, store.TransitionRecord{
				Stream: st, Time: tr.Time, Link: tr.Link, Dir: tr.Dir, Kind: tr.Kind, Reporter: tr.Reporter,
			})
		}
	}
	add(store.StreamSyslogAdj, a.SyslogAdj)
	add(store.StreamSyslogPerRouter, a.SyslogPerRtr)
	add(store.StreamSyslogPhysical, a.SyslogPhysical)
	add(store.StreamISReach, a.ISReach)
	add(store.StreamIPReach, a.IPReach)
	store.SortTransitionRecords(recs)
	return recs
}

func oracleMessages(camp *Campaign) []store.MessageRecord {
	out := make([]store.MessageRecord, 0, len(camp.Syslog))
	for _, m := range camp.Syslog {
		out = append(out, store.MessageRecord{
			Time: time.UnixMilli(m.Timestamp.UnixMilli()).UTC(),
			Host: m.Hostname,
			Line: m.Render(),
		})
	}
	return out
}

func oracleTables(st *Study) store.Tables {
	a := st.Analysis
	return store.Tables{
		Table1: a.Table1(st.Campaign.Archive.FileCount(), st.Campaign.Counts.LSPUpdates),
		Table2: a.Table2(),
		Table3: a.Table3(),
		Table4: a.Table4(),
		Table5: a.Table5(),
		Table6: a.Table6(),
		Table7: a.Table7(),
	}
}

// TestStoreOracleAcrossSeedsAndParallelism pins every bulk query
// against the pipeline oracle across campaigns and worker counts —
// building the store through a parallel run must not reorder or drop
// anything.
func TestStoreOracleAcrossSeedsAndParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	ctx := context.Background()
	for _, seed := range []int64{1, 2, 5} {
		for _, par := range []int{0, 1, 2} {
			t.Run(fmt.Sprintf("seed=%d/parallelism=%d", seed, par), func(t *testing.T) {
				dir := t.TempDir()
				st, err := Run(ctx, smallConfig(seed), WithParallelism(par), WithStoreDir(dir))
				if err != nil {
					t.Fatal(err)
				}
				s, err := store.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				a := st.Analysis

				links, err := s.Links(ctx)
				if err != nil {
					t.Fatal(err)
				}
				wantLinks := make([]store.LinkEntry, 0, len(a.AnalyzedLinks))
				for _, l := range a.AnalyzedLinks {
					wantLinks = append(wantLinks, store.LinkEntry{ID: l.ID, Class: l.Class})
				}
				compareJSON(t, "links", links, wantLinks)

				fails, err := s.Failures(ctx)
				if err != nil {
					t.Fatal(err)
				}
				compareJSON(t, "failures", fails, oracleFailures(a))

				trans, err := s.Transitions(ctx)
				if err != nil {
					t.Fatal(err)
				}
				compareJSON(t, "transitions", trans, oracleTransitions(a))

				msgs, err := s.Messages(ctx)
				if err != nil {
					t.Fatal(err)
				}
				compareJSON(t, "messages", msgs, oracleMessages(st.Campaign))

				compareJSON(t, "tables", *s.Tables(), oracleTables(st))

				man := s.Manifest()
				if man.Seed != seed {
					t.Errorf("manifest seed = %d, want %d", man.Seed, seed)
				}
				if man.Failures.Records != int64(len(fails)) || man.Transitions.Records != int64(len(trans)) {
					t.Errorf("manifest record counts (%d failures, %d transitions) disagree with queries (%d, %d)",
						man.Failures.Records, man.Transitions.Records, len(fails), len(trans))
				}
			})
		}
	}
}

// TestStoreFilteredQueriesMatchOracle pins the indexed/filtered paths
// (postings, sparse-index window seeks, limits, flap grouping)
// against brute-force filters over the oracle lists. The indexed path
// and the filter predicate are independent implementations, so drift
// in either shows up as a mismatch.
func TestStoreFilteredQueriesMatchOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	ctx := context.Background()
	dir := t.TempDir()
	st, err := Run(ctx, smallConfig(5), WithStoreDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := st.Analysis
	allFails := oracleFailures(a)
	allTrans := oracleTransitions(a)
	allMsgs := oracleMessages(st.Campaign)
	if len(allFails) == 0 || len(allTrans) == 0 || len(allMsgs) == 0 {
		t.Fatal("campaign produced no data to query")
	}

	from := time.Date(2011, 1, 10, 0, 0, 0, 0, time.UTC)
	to := from.AddDate(0, 0, 7)
	link := allFails[0].Link

	t.Run("failures by link", func(t *testing.T) {
		got, err := s.Failures(ctx, store.WithLink(link))
		if err != nil {
			t.Fatal(err)
		}
		var want []store.FailureRecord
		for _, r := range allFails {
			if r.Link == link {
				want = append(want, r)
			}
		}
		compareJSON(t, "failures by link", got, want)
	})

	t.Run("failures in window", func(t *testing.T) {
		got, err := s.Failures(ctx, store.WithWindow(from, to))
		if err != nil {
			t.Fatal(err)
		}
		var want []store.FailureRecord
		for _, r := range allFails {
			if r.Failure().Overlaps(from, to) {
				want = append(want, r)
			}
		}
		if len(want) == 0 {
			t.Fatal("window selects nothing; widen it")
		}
		compareJSON(t, "failures in window", got, want)
	})

	t.Run("failures by source with limit", func(t *testing.T) {
		got, err := s.Failures(ctx, store.WithSource(store.SourceISIS), store.WithLimit(7))
		if err != nil {
			t.Fatal(err)
		}
		var want []store.FailureRecord
		for _, r := range allFails {
			if r.Source == store.SourceISIS {
				want = append(want, r)
				if len(want) == 7 {
					break
				}
			}
		}
		compareJSON(t, "failures by source with limit", got, want)
	})

	t.Run("transitions by stream and direction", func(t *testing.T) {
		got, err := s.Transitions(ctx, store.WithStream(store.StreamISReach), store.WithDirection(trace.Down))
		if err != nil {
			t.Fatal(err)
		}
		var want []store.TransitionRecord
		for _, r := range allTrans {
			if r.Stream == store.StreamISReach && r.Dir == trace.Down {
				want = append(want, r)
			}
		}
		compareJSON(t, "transitions by stream and direction", got, want)
	})

	t.Run("transitions by link in window", func(t *testing.T) {
		tlink := allTrans[len(allTrans)/2].Link
		got, err := s.Transitions(ctx, store.WithLink(tlink), store.WithWindow(from, to))
		if err != nil {
			t.Fatal(err)
		}
		var want []store.TransitionRecord
		for _, r := range allTrans {
			if r.Link == tlink && !r.Time.Before(from) && r.Time.Before(to) {
				want = append(want, r)
			}
		}
		compareJSON(t, "transitions by link in window", got, want)
	})

	t.Run("transitions by reporter", func(t *testing.T) {
		rep := allTrans[0].Reporter
		got, err := s.Transitions(ctx, store.WithReporter(rep))
		if err != nil {
			t.Fatal(err)
		}
		var want []store.TransitionRecord
		for _, r := range allTrans {
			if r.Reporter == rep {
				want = append(want, r)
			}
		}
		compareJSON(t, "transitions by reporter", got, want)
	})

	t.Run("messages by host", func(t *testing.T) {
		host := allMsgs[0].Host
		got, err := s.Messages(ctx, store.WithHost(host))
		if err != nil {
			t.Fatal(err)
		}
		var want []store.MessageRecord
		for _, m := range allMsgs {
			if m.Host == host {
				want = append(want, m)
			}
		}
		compareJSON(t, "messages by host", got, want)
	})

	t.Run("messages by substring in window", func(t *testing.T) {
		host := allMsgs[len(allMsgs)/3].Host
		got, err := s.Messages(ctx, store.WithContains(host), store.WithWindow(from, to))
		if err != nil {
			t.Fatal(err)
		}
		var want []store.MessageRecord
		for _, m := range allMsgs {
			if !containsStr(m.Line, host) {
				continue
			}
			if m.Time.Before(from) || !m.Time.Before(to) {
				continue
			}
			want = append(want, m)
		}
		if len(want) == 0 {
			t.Fatal("substring window selects nothing; pick another probe")
		}
		compareJSON(t, "messages by substring in window", got, want)
	})

	t.Run("messages with limit", func(t *testing.T) {
		got, err := s.Messages(ctx, store.WithLimit(100))
		if err != nil {
			t.Fatal(err)
		}
		compareJSON(t, "messages with limit", got, allMsgs[:100])
	})

	t.Run("flaps", func(t *testing.T) {
		for _, src := range []store.Source{store.SourceSyslog, store.SourceISIS} {
			got, err := s.Flaps(ctx, src)
			if err != nil {
				t.Fatal(err)
			}
			var fs []Failure
			for _, r := range allFails {
				if r.Source == src {
					fs = append(fs, r.Failure())
				}
			}
			want := FlapEpisodes(fs, a.In.FlapGap)
			compareJSON(t, "flaps/"+src.String(), got, want)
		}
	})
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestStoreFromCaptureMatchesInRAM pins the other build paths: a store
// written by AnalyzeCaptureDir — from a sharded capture (streaming,
// possibly parallel) or from a flat syslog.log/lsps.log directory —
// must answer every query identically to the store the in-RAM pipeline
// writes for the same campaign.
func TestStoreFromCaptureMatchesInRAM(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	ctx := context.Background()
	cfg := smallConfig(3)

	ramStore := t.TempDir()
	st, err := Run(ctx, cfg, WithStoreDir(ramStore))
	if err != nil {
		t.Fatal(err)
	}
	ram, err := store.Open(ramStore)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := ram.Failures(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := ram.Transitions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := ram.Messages(ctx)
	if err != nil {
		t.Fatal(err)
	}

	capDir, flatDir := t.TempDir(), t.TempDir()
	if _, err := SimulateToCapture(ctx, cfg, FabricSpec{}, capDir); err != nil {
		t.Fatal(err)
	}
	writeFlatCampaign(t, flatDir, st.Campaign)

	for _, src := range []struct{ name, dir string }{{"capture", capDir}, {"flat", flatDir}} {
		dirStore := t.TempDir() + "/store"
		if _, _, err := AnalyzeCaptureDir(ctx, src.dir, false, WithStoreDir(dirStore), WithParallelism(2)); err != nil {
			t.Fatal(err)
		}
		cap, err := store.Open(dirStore)
		if err != nil {
			t.Fatal(err)
		}
		cf, err := cap.Failures(ctx)
		if err != nil {
			t.Fatal(err)
		}
		compareJSON(t, src.name+"-path failures", cf, rf)

		ct, err := cap.Transitions(ctx)
		if err != nil {
			t.Fatal(err)
		}
		compareJSON(t, src.name+"-path transitions", ct, rt)

		cm, err := cap.Messages(ctx)
		if err != nil {
			t.Fatal(err)
		}
		compareJSON(t, src.name+"-path messages", cm, rm)

		compareJSON(t, src.name+"-path tables", *cap.Tables(), *ram.Tables())
	}
}

// countSpans counts the spans named name in a recorded forest.
func countSpans(infos []*obs.SpanInfo, name string) int {
	n := 0
	for _, info := range infos {
		if info.Name == name {
			n++
		}
		n += countSpans(info.Children, name)
	}
	return n
}

// reportTwice renders a study's report from two goroutines at once.
func reportTwice(t *testing.T, st *Study, tracer *Tracer) [2][]byte {
	t.Helper()
	var reports [2]bytes.Buffer
	var errs [2]error
	var wg sync.WaitGroup
	for i := range reports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = st.ReportContext(context.Background(), &reports[i], WithTracer(tracer))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return [2][]byte{reports[0].Bytes(), reports[1].Bytes()}
}

// TestStoreAndReportShareTables: a study computes its tables once. One
// analyzed into a store computes them while the store is written, and
// Report renders those; one without a store computes them for the
// first of two concurrent Reports. Every report has the same bytes.
func TestStoreAndReportShareTables(t *testing.T) {
	ctx := context.Background()
	camp, err := Simulate(ctx, smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	stored, fresh := NewTracer(), NewTracer()
	st, err := Analyze(ctx, camp, WithStoreDir(t.TempDir()), WithTracer(stored))
	if err != nil {
		t.Fatal(err)
	}
	if got := countSpans(stored.Snapshot(), "tables/table5"); got != 1 {
		t.Fatalf("writing the store computed Table 5 %d times, want 1", got)
	}
	reports := reportTwice(t, st, stored)
	if got := countSpans(stored.Snapshot(), "tables/table5"); got != 1 {
		t.Errorf("after two reports Table 5 was computed %d times, want the store's one", got)
	}
	plain, err := Analyze(ctx, camp)
	if err != nil {
		t.Fatal(err)
	}
	want := reportTwice(t, plain, fresh)
	if got := countSpans(fresh.Snapshot(), "tables/table5"); got != 1 {
		t.Errorf("two concurrent reports computed Table 5 %d times, want 1", got)
	}
	for _, got := range append(reports[:], want[1]) {
		if !bytes.Equal(got, want[0]) {
			t.Error("a report of the study differs from another")
		}
	}
}
