package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"netfail/internal/clock"
)

var update = flag.Bool("update", false, "rewrite golden files")

func fakeStart() time.Time {
	return time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC)
}

// buildFixture records a deterministic span forest off a fake clock:
// a pipeline-shaped tree with counters, a parallel-shard level, and
// one span left open.
func buildFixture() *Tracer {
	clk := clock.NewFake(fakeStart())
	tr := NewTracerClock(clk)

	run := tr.Start("run")
	sim := run.Child("simulate")
	clk.Advance(2 * time.Second)
	sim.Add("syslog.sent", 50687)
	sim.Add("lsps", 12034)
	sim.End()

	an := run.Child("analyze")
	ex := an.Child("extract-syslog")
	for i := 0; i < 2; i++ {
		sh := ex.Child("worker[" + string(rune('0'+i)) + "]")
		clk.Advance(150 * time.Millisecond)
		sh.Add("tasks", int64(3+i))
		sh.End()
	}
	ex.Add("syslog.messages", 50687)
	ex.End()
	rec := an.Child("reconstruct")
	clk.Advance(750 * time.Microsecond)
	rec.End()
	an.End()
	run.End()

	open := tr.Start("report")
	_ = open // never ended: renders as open
	return tr
}

func TestWriteTreeGolden(t *testing.T) {
	tr := buildFixture()
	var buf bytes.Buffer
	if err := tr.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "tree.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("span tree mismatch\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	tr := buildFixture()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string           `json:"name"`
			Ph   string           `json:"ph"`
			Ts   int64            `json:"ts"`
			Dur  int64            `json:"dur"`
			Tid  int              `json:"tid"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("got %d events, want 8", len(doc.TraceEvents))
	}
	tids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q: ph = %q, want X", ev.Name, ev.Ph)
		}
		if tids[ev.Tid] {
			t.Errorf("tid %d reused", ev.Tid)
		}
		tids[ev.Tid] = true
	}
	if doc.TraceEvents[1].Name != "simulate" || doc.TraceEvents[1].Args["syslog.sent"] != 50687 {
		t.Errorf("simulate event malformed: %+v", doc.TraceEvents[1])
	}
	if doc.TraceEvents[0].Ts != 0 {
		t.Errorf("first event ts = %d, want 0", doc.TraceEvents[0].Ts)
	}
}

func TestNilSafety(t *testing.T) {
	// Every disabled-path value must be inert: nil tracer, nil span,
	// nil registry, nil instruments, empty context.
	var tr *Tracer
	s := tr.Start("x")
	s.Add("c", 1)
	s.End()
	if s.Child("y") != nil {
		t.Error("nil span produced a child")
	}
	if got := tr.Snapshot(); got != nil {
		t.Errorf("nil tracer snapshot = %v", got)
	}

	var reg *Registry
	reg.Counter("c").Add(5)
	reg.Gauge("g").Set(5)
	if reg.Counter("c").Value() != 0 || reg.Snapshot() != nil {
		t.Error("nil registry retained state")
	}

	ctx := context.Background()
	if TracerFrom(ctx) != nil || RegistryFrom(ctx) != nil || SpanFrom(ctx) != nil {
		t.Error("empty context carried observability state")
	}
	if Enabled(ctx) {
		t.Error("empty context reports Enabled")
	}
	Emit(ctx, Event{Kind: StageStarted, Stage: "x"}) // must not panic
	Add(ctx, "c", 1)
	Shard(ctx, 1, 2)
	sctx, done := Stage(ctx, "s")
	if sctx != ctx {
		t.Error("disabled Stage derived a new context")
	}
	done()
}

func TestContextCarriers(t *testing.T) {
	tr := NewTracerClock(clock.NewFake(fakeStart()))
	reg := NewRegistry()
	var mu sync.Mutex
	var events []Event
	ctx := WithTracer(context.Background(), tr)
	ctx = WithRegistry(ctx, reg)
	ctx = WithProgress(ctx, func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, ev)
	})
	if !Enabled(ctx) {
		t.Fatal("instrumented context not Enabled")
	}

	sctx, done := Stage(ctx, "analyze")
	if StageName(sctx) != "analyze" {
		t.Errorf("StageName = %q", StageName(sctx))
	}
	Add(sctx, "items", 3)
	Add(sctx, "items", 4)
	Shard(sctx, 1, 2)
	done()

	if got := reg.Counter("items").Value(); got != 7 {
		t.Errorf("registry items = %d, want 7", got)
	}
	roots := tr.Snapshot()
	if len(roots) != 1 || roots[0].Name != "analyze" || !roots[0].Ended {
		t.Fatalf("span forest %+v", roots)
	}
	if len(roots[0].Counters) != 1 || roots[0].Counters[0] != (CounterValue{Name: "items", Value: 7}) {
		t.Errorf("span counters %+v", roots[0].Counters)
	}
	want := []Event{
		{Kind: StageStarted, Stage: "analyze"},
		{Kind: ShardDone, Stage: "analyze", Shard: 1, Shards: 2},
		{Kind: StageFinished, Stage: "analyze"},
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != len(want) {
		t.Fatalf("events %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event[%d] = %v, want %v", i, events[i], want[i])
		}
	}
	if reg.Gauge("stage.analyze.mallocs") == nil {
		t.Error("stage malloc gauge missing")
	}
}

func TestRegistrySnapshotAndText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b.count").Add(2)
	reg.Counter("a.count").Add(1)
	reg.Gauge("c.gauge").Set(-3)
	snap := reg.Snapshot()
	if len(snap) != 3 || snap[0].Name != "a.count" || snap[2] != (MetricValue{Name: "c.gauge", Value: -3}) {
		t.Errorf("snapshot %+v", snap)
	}
	if got, want := reg.String(), `{"a.count": 1, "b.count": 2, "c.gauge": -3}`; got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
	if !json.Valid([]byte(reg.String())) {
		t.Error("String() is not valid JSON (the /api/v1/metrics body)")
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "metric a.count 1\nmetric b.count 2\nmetric c.gauge -3\n"; buf.String() != want {
		t.Errorf("WriteText = %q, want %q", buf.String(), want)
	}
}

func TestConcurrentUse(t *testing.T) {
	// Race-detector coverage: spans, counters, and progress from many
	// goroutines at once. Each shard opens a span per operation, so
	// unlocked span bookkeeping races many times, not once per shard.
	tr := NewTracer()
	reg := NewRegistry()
	ctx := WithTracer(context.Background(), tr)
	ctx = WithRegistry(ctx, reg)
	ctx = WithProgress(ctx, func(Event) {})
	sctx, done := Stage(ctx, "parallel")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shardCtx, shardDone := Stage(sctx, "shard")
			for j := 0; j < 100; j++ {
				_, op := StartSpan(shardCtx, "op")
				Add(sctx, "ops", 1)
				Shard(sctx, j, 100)
				op.End()
			}
			shardDone()
		}()
	}
	wg.Wait()
	done()
	if got := reg.Counter("ops").Value(); got != 800 {
		t.Errorf("ops = %d, want 800", got)
	}
	roots := tr.Snapshot()
	if len(roots) != 1 || len(roots[0].Children) != 8 {
		t.Fatalf("expected 8 shard children, got %+v", roots)
	}
}

func TestSpanEndTwiceKeepsFirstDuration(t *testing.T) {
	clk := clock.NewFake(fakeStart())
	tr := NewTracerClock(clk)
	s := tr.Start("x")
	clk.Advance(time.Second)
	s.End()
	clk.Advance(time.Hour)
	s.End()
	if got := tr.Snapshot()[0].Dur; got != time.Second {
		t.Errorf("dur = %v, want 1s", got)
	}
}
