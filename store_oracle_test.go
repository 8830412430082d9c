package netfail

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
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
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	if g != w {
		lo := max(i-80, 0)
		t.Errorf("%s diverge from pipeline oracle at byte %d:\n got …%s…\nwant …%s…", what, i, g[lo:min(i+80, len(g))], w[lo:min(i+80, len(w))])
	}
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

// checkStore is every row's store check: each bulk answer of the
// store the row wrote equals the oracle the reference derived, and
// the indexed and filtered paths (postings, sparse-index window seeks,
// limits, flap grouping) equal brute-force filters over it — the
// indexed path and the filter predicate are independent
// implementations, so drift in either shows up as a mismatch.
func checkStore(t *testing.T, dir string, ref *reference) {
	t.Helper()
	ctx := context.Background()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ok := func(v any, err error) any {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	msgs := ok(s.Messages(ctx)).([]store.MessageRecord)
	man := s.Manifest()
	var segments []int64
	total := 0
	for _, seg := range man.Messages {
		segments = append(segments, seg.Records)
		total += int(seg.Records)
	}
	if !slices.Equal(segments, ref.segments) || len(msgs) != total {
		t.Errorf("message segments hold %v records and answer %d, want %v", segments, len(msgs), ref.segments)
	}
	if man.Seed != ref.study.Campaign.Config.Seed || man.Failures.Records != int64(len(ref.failures)) ||
		man.Transitions.Records != int64(len(ref.transitions)) {
		t.Errorf("manifest: seed %d, %d failures, %d transitions; the reference has %d, %d, %d", man.Seed,
			man.Failures.Records, man.Transitions.Records, ref.study.Campaign.Config.Seed, len(ref.failures), len(ref.transitions))
	}

	from := time.Date(2011, 1, 10, 0, 0, 0, 0, time.UTC)
	to := from.AddDate(0, 0, 7)
	link, tlink, rep := ref.failures[0].Link, ref.transitions[len(ref.transitions)/2].Link, ref.transitions[0].Reporter
	inWindow := filter(ref.failures, func(r store.FailureRecord) bool { return r.Failure().Overlaps(from, to) })
	msgsInWindow := filter(msgs, func(m store.MessageRecord) bool { return !m.Time.Before(from) && m.Time.Before(to) })
	if len(inWindow) == 0 || len(msgsInWindow) == 0 {
		t.Fatal("the window selects nothing; widen it")
	}
	host, probe := msgs[0].Host, msgsInWindow[len(msgsInWindow)/2].Host
	episodes := func(src store.Source) []Episode {
		var fs []Failure
		for _, r := range filter(ref.failures, func(r store.FailureRecord) bool { return r.Source == src }) {
			fs = append(fs, r.Failure())
		}
		return FlapEpisodes(fs, ref.study.Analysis.In.FlapGap)
	}
	for _, q := range []struct {
		name      string
		got, want any
	}{
		{"links", ok(s.Links(ctx)), ref.links},
		{"failures", ok(s.Failures(ctx)), ref.failures},
		{"transitions", ok(s.Transitions(ctx)), ref.transitions},
		{"the first segment's messages", msgs[:min(len(msgs), len(ref.messages))], ref.messages},
		{"tables", *s.Tables(), ref.tables},
		{"failures by link", ok(s.Failures(ctx, store.WithLink(link))),
			filter(ref.failures, func(r store.FailureRecord) bool { return r.Link == link })},
		{"failures in window", ok(s.Failures(ctx, store.WithWindow(from, to))), inWindow},
		{"failures by source with limit", ok(s.Failures(ctx, store.WithSource(store.SourceISIS), store.WithLimit(7))),
			filter(ref.failures, func(r store.FailureRecord) bool { return r.Source == store.SourceISIS })[:7]},
		{"transitions by stream and direction", ok(s.Transitions(ctx, store.WithStream(store.StreamISReach), store.WithDirection(trace.Down))),
			filter(ref.transitions, func(r store.TransitionRecord) bool { return r.Stream == store.StreamISReach && r.Dir == trace.Down })},
		{"transitions by link in window", ok(s.Transitions(ctx, store.WithLink(tlink), store.WithWindow(from, to))),
			filter(ref.transitions, func(r store.TransitionRecord) bool {
				return r.Link == tlink && !r.Time.Before(from) && r.Time.Before(to)
			})},
		{"transitions by reporter", ok(s.Transitions(ctx, store.WithReporter(rep))),
			filter(ref.transitions, func(r store.TransitionRecord) bool { return r.Reporter == rep })},
		{"messages by host", ok(s.Messages(ctx, store.WithHost(host))), filter(msgs, func(m store.MessageRecord) bool { return m.Host == host })},
		{"messages by substring in window", ok(s.Messages(ctx, store.WithContains(probe), store.WithWindow(from, to))),
			filter(msgsInWindow, func(m store.MessageRecord) bool { return strings.Contains(m.Line, probe) })},
		{"messages with limit", ok(s.Messages(ctx, store.WithLimit(100))), msgs[:100]},
		{"flaps", []any{ok(s.Flaps(ctx, store.SourceSyslog)), ok(s.Flaps(ctx, store.SourceISIS))},
			[]any{episodes(store.SourceSyslog), episodes(store.SourceISIS)}},
	} {
		t.Run(q.name, func(t *testing.T) { compareJSON(t, q.name, q.got, q.want) })
	}
}

// filter is the brute-force predicate an indexed query must agree
// with.
func filter[T any](recs []T, keep func(T) bool) []T {
	var out []T
	for _, r := range recs {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// TestStoreOracleAcrossSeedsAndParallelism: the in-RAM rows over three
// seeds at three worker counts — building the store through a
// parallel run must not reorder or drop anything.
func TestStoreOracleAcrossSeedsAndParallelism(t *testing.T) {
	skipShort(t)
	for _, seed := range []int64{1, 2, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRows(t, campaign(t, seed, shortDays), selection{sources: []string{"memory"}, lenient: strict, par: []int{0, 1, 2}, observed: plain})
		})
	}
}

// TestStoreFilteredQueriesMatchOracle: the filtered queries every row
// asks, over the seed-5 store.
func TestStoreFilteredQueriesMatchOracle(t *testing.T) {
	skipShort(t)
	runRows(t, campaign(t, 5, shortDays), selection{sources: []string{"memory"}, lenient: strict, par: []int{0}, observed: plain})
}

// TestStoreFromCaptureMatchesInRAM: a store written from a capture or
// a flat directory, at a parallel setting, answers every query as the
// in-RAM pipeline's oracle does.
func TestStoreFromCaptureMatchesInRAM(t *testing.T) {
	skipShort(t)
	runRows(t, campaign(t, 1, shortDays), selection{sources: []string{"capture", "flat"}, lenient: strict, par: []int{2}, observed: plain})
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

// TestStoreAndReportShareTables: a study computes its tables once. One
// analyzed into a store computes them while the store is written, and
// Report renders those (every observed row checks it); one without a
// store computes them for the first of two concurrent Reports. Every
// report has the same bytes.
func TestStoreAndReportShareTables(t *testing.T) {
	fx := campaign(t, 1, shortDays)
	runRows(t, fx, selection{sources: []string{"memory"}, lenient: strict, par: []int{1}, observed: []bool{true}})
	st, err := Analyze(context.Background(), fx.camp)
	if err != nil {
		t.Fatal(err)
	}
	tracer := NewTracer()
	var reports [2]bytes.Buffer
	var wg sync.WaitGroup
	for i := range reports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := st.ReportContext(context.Background(), &reports[i], WithTracer(tracer)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := countSpans(tracer.Snapshot(), "tables/table5"); got != 1 {
		t.Errorf("two concurrent reports computed Table 5 %d times, want 1", got)
	}
	for _, got := range reports {
		assertSameLines(t, "the reference report", got.Bytes(), fx.reference(t, "memory").report)
	}
}
