package serve

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netfail/internal/backoff"
	"netfail/internal/obs"
)

var testBase = time.Date(2026, time.February, 1, 0, 0, 0, 0, time.UTC)

// replaySource emits a fixed record list starting at start — the
// in-memory twin of the campaign file sources netfail-serve resumes
// after recovery. failBefore injects one source failure immediately
// before the given index each time its count is positive.
type replaySource struct {
	name       string
	recs       []string
	start      int
	failBefore map[int]int
}

func (s *replaySource) Name() string { return s.name }

func (s *replaySource) Run(ctx context.Context, emit func(Record) error) error {
	for s.start < len(s.recs) {
		i := s.start
		if s.failBefore[i] > 0 {
			s.failBefore[i]--
			return fmt.Errorf("injected failure before record %d", i)
		}
		rec := Record{Time: testBase.Add(time.Duration(i) * time.Second), Data: []byte(s.recs[i])}
		if err := emit(rec); err != nil {
			return err
		}
		s.start = i + 1
	}
	return nil
}

// captureHandler accumulates per-source streams; report renders them
// deterministically, the stand-in for the campaign's final report.
type captureHandler struct {
	mu      sync.Mutex
	streams map[string][]string
}

func newCaptureHandler() *captureHandler {
	return &captureHandler{streams: make(map[string][]string)}
}

func (h *captureHandler) Apply(r Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.streams[r.Source] = append(h.streams[r.Source], string(r.Data))
	return nil
}

func (h *captureHandler) report() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	names := make([]string, 0, len(h.streams))
	for name := range h.streams {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s: %s\n", name, strings.Join(h.streams[name], ","))
	}
	return b.String()
}

func records(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return out
}

func TestSupervisorIngestsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	h := newCaptureHandler()
	reg := obs.NewRegistry()
	sup, rcv, err := New(Config{Dir: dir, Registry: reg},
		h,
		&replaySource{name: "alpha", recs: records("a", 20)},
		&replaySource{name: "beta", recs: records("b", 10)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if rcv.Records != 0 {
		t.Fatalf("fresh dir recovered %d records", rcv.Records)
	}
	if err := sup.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := "alpha: " + strings.Join(records("a", 20), ",") + "\nbeta: " + strings.Join(records("b", 10), ",") + "\n"
	if got := h.report(); got != want {
		t.Errorf("report:\n%s\nwant:\n%s", got, want)
	}
	if got := reg.Counter("serve.wal.appends").Value(); got != 30 {
		t.Errorf("serve.wal.appends = %d, want 30", got)
	}
	if got := reg.Counter("serve.ingested.alpha").Value(); got != 20 {
		t.Errorf("serve.ingested.alpha = %d, want 20", got)
	}
	if got := reg.Counter("serve.snapshots").Value(); got != 1 {
		t.Errorf("serve.snapshots = %d, want the final one", got)
	}

	// A restart recovers everything from the final snapshot and
	// replays it through a fresh handler in original order.
	h2 := newCaptureHandler()
	_, rcv2, err := New(Config{Dir: dir}, h2)
	if err != nil {
		t.Fatal(err)
	}
	if rcv2.Records != 30 || rcv2.PerSource["alpha"] != 20 || rcv2.PerSource["beta"] != 10 {
		t.Errorf("recovered %d (%v)", rcv2.Records, rcv2.PerSource)
	}
	if got := h2.report(); got != want {
		t.Errorf("recovered report:\n%s\nwant:\n%s", got, want)
	}
	if !rcv2.Report.Clean() {
		t.Errorf("clean shutdown recovered dirty: %s", rcv2.Report)
	}
}

// TestKillResumeMatchesUninterrupted is the in-process half of the
// chaos gate: freeze the daemon at a mid-ingest kill point (the
// append hook never returns, exactly what SIGKILL does to the
// process), then recover in a second supervisor that resumes each
// replay source at its recovered count. The resumed report must be
// byte-identical to an uninterrupted run's.
func TestKillResumeMatchesUninterrupted(t *testing.T) {
	alpha := records("a", 40)
	beta := records("b", 25)

	// Uninterrupted reference run.
	refDir := t.TempDir()
	refHandler := newCaptureHandler()
	refSup, _, err := New(Config{Dir: refDir},
		refHandler,
		&replaySource{name: "alpha", recs: alpha},
		&replaySource{name: "beta", recs: beta},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := refSup.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := refHandler.report()

	// Killed run: the hook blocks forever at the first durable write
	// that reaches killAfter records, freezing the ingest path after
	// the write and before any record of its batch is applied. A write
	// journals a whole batch, so the durable total there may be past
	// killAfter; the hook holds the ingest lock, so it freezes once.
	// The goroutines it strands are released when the test ends;
	// nothing they hold is shared with the resumed supervisor.
	const killAfter = 17
	dir := t.TempDir()
	frozen := make(chan struct{})
	neverReleased := make(chan struct{})
	var durable int
	killedSup, _, err := New(Config{
		Dir: dir,
		AppendHook: func(total int) {
			if total >= killAfter {
				durable = total
				close(frozen)
				<-neverReleased
			}
		},
	},
		newCaptureHandler(),
		&replaySource{name: "alpha", recs: alpha},
		&replaySource{name: "beta", recs: beta},
	)
	if err != nil {
		t.Fatal(err)
	}
	go killedSup.Run(context.Background()) // abandoned on purpose: this is the kill
	select {
	case <-frozen:
	case <-time.After(10 * time.Second):
		t.Fatal("kill point never reached")
	}

	// Resume: recover the durable prefix, resume each source at its
	// recovered count, run to completion.
	resumedHandler := newCaptureHandler()
	alphaSrc := &replaySource{name: "alpha", recs: alpha}
	betaSrc := &replaySource{name: "beta", recs: beta}
	resumedSup, rcv, err := New(Config{Dir: dir}, resumedHandler, alphaSrc, betaSrc)
	if err != nil {
		t.Fatal(err)
	}
	if rcv.Records != durable {
		t.Fatalf("recovered %d records, want the %d durable at the kill", rcv.Records, durable)
	}
	alphaSrc.start = rcv.PerSource["alpha"]
	betaSrc.start = rcv.PerSource["beta"]
	if err := resumedSup.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := resumedHandler.report(); got != want {
		t.Errorf("resumed report differs from uninterrupted run:\n%s\nwant:\n%s", got, want)
	}
}

func TestSupervisorRestartsFailedSource(t *testing.T) {
	dir := t.TempDir()
	h := newCaptureHandler()
	reg := obs.NewRegistry()
	src := &replaySource{
		name:       "flaky",
		recs:       records("f", 10),
		failBefore: map[int]int{3: 2, 7: 1}, // two failures before record 3, one before 7
	}
	sup, _, err := New(Config{Dir: dir, Registry: reg}, h, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := "flaky: " + strings.Join(records("f", 10), ",") + "\n"
	if got := h.report(); got != want {
		t.Errorf("report after restarts:\n%s\nwant:\n%s", got, want)
	}
	if got := reg.Counter("serve.source.flaky.restarts").Value(); got != 3 {
		t.Errorf("restarts = %d, want 3", got)
	}
	for _, sh := range sup.Health() {
		if sh.State != Up {
			t.Errorf("source %s ended %v, want up (it recovered)", sh.Name, sh.State)
		}
	}
}

// brokenSource fails every Run without ever emitting.
type brokenSource struct{ name string }

func (s *brokenSource) Name() string { return s.name }
func (s *brokenSource) Run(ctx context.Context, emit func(Record) error) error {
	return fmt.Errorf("wire cut")
}

func TestSourceGoesDownAfterRestartBudget(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	sup, _, err := New(Config{
		Dir:       dir,
		Registry:  reg,
		DownAfter: 2,
		Restart:   backoff.Policy{Base: time.Microsecond, Factor: 2, Retries: 3},
	}, newCaptureHandler(), &brokenSource{name: "cut"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	healths := sup.Health()
	if len(healths) != 1 || healths[0].State != Down {
		t.Fatalf("health = %+v, want cut down", healths)
	}
	if got := reg.Gauge("serve.source.cut.state").Value(); got != int64(Down) {
		t.Errorf("state gauge = %d, want %d", got, Down)
	}
	rr := httptest.NewRecorder()
	sup.HealthzHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/health", nil))
	if rr.Code != 503 || !strings.Contains(rr.Body.String(), "cut down") {
		t.Errorf("healthz = %d %q, want 503 with per-source state", rr.Code, rr.Body.String())
	}
}

// countedBrokenSource is brokenSource that counts its Runs.
type countedBrokenSource struct {
	brokenSource
	runs atomic.Int32
}

func (s *countedBrokenSource) Run(ctx context.Context, emit func(Record) error) error {
	s.runs.Add(1)
	return s.brokenSource.Run(ctx, emit)
}

// TestCancelEndsRestartBackoff: cancellation must end the wait between
// two restarts of a failing source, and must not buy the source one
// more Run on the way out.
func TestCancelEndsRestartBackoff(t *testing.T) {
	src := &countedBrokenSource{brokenSource: brokenSource{name: "cut"}}
	sup, _, err := New(Config{
		Dir:     t.TempDir(),
		Restart: backoff.Policy{Base: time.Hour},
	}, newCaptureHandler(), src)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- sup.Run(ctx) }()
	for deadline := time.Now().Add(5 * time.Second); src.runs.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("source never ran")
		}
	}
	cancel()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Run still waiting out the restart backoff 5s after cancel (%d source runs)", src.runs.Load())
	}
	if got := src.runs.Load(); got != 1 {
		t.Errorf("source ran %d times, want 1: cancelled supervisor restarted it", got)
	}
}

// slowHandler applies records at a fixed per-record cost, creating
// backlog under a fast producer.
type slowHandler struct {
	captureHandler
	delay time.Duration
}

func (h *slowHandler) Apply(r Record) error {
	time.Sleep(h.delay)
	return h.captureHandler.Apply(r)
}

// TestOverloadSoakShedsPerPolicyWithExactAccounting drives each
// policy at ten times the queue capacity against a slow consumer. The
// acceptance contract is exact conservation: every produced record is
// either ingested or accounted as shed, depth stays bounded by the
// queue, and Block sheds nothing.
func TestOverloadSoakShedsPerPolicyWithExactAccounting(t *testing.T) {
	const capacity = 50
	const n = 10 * capacity
	for _, policy := range []Policy{Block, DropOldest, DropNewest} {
		t.Run(policy.String(), func(t *testing.T) {
			reg := obs.NewRegistry()
			h := &slowHandler{delay: 100 * time.Microsecond}
			h.streams = make(map[string][]string)
			sup, _, err := New(Config{
				Dir:       t.TempDir(),
				Registry:  reg,
				QueueSize: capacity,
				Policy:    policy,
			}, h, &replaySource{name: "burst", recs: records("r", n)})
			if err != nil {
				t.Fatal(err)
			}
			if err := sup.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			ingested := reg.Counter("serve.ingested.burst").Value()
			shed := reg.Counter("serve.shed.burst").Value()
			if ingested+shed != n {
				t.Errorf("ingested %d + shed %d != produced %d: records unaccounted", ingested, shed, n)
			}
			if hw := reg.Gauge("serve.queue.burst.highwater").Value(); hw > capacity {
				t.Errorf("highwater %d exceeds queue capacity %d", hw, capacity)
			}
			if depth := reg.Gauge("serve.queue.burst.depth").Value(); depth != 0 {
				t.Errorf("final depth = %d, want fully drained", depth)
			}
			if policy == Block {
				if shed != 0 {
					t.Errorf("Block policy shed %d records", shed)
				}
				if got := len(h.streams["burst"]); got != n {
					t.Errorf("Block ingested %d of %d", got, n)
				}
			} else if shed == 0 {
				t.Errorf("%v at 10x capacity shed nothing", policy)
			}
		})
	}
}

// stubbornSource emits forever until the supervisor stops it,
// counting the records emit accepted.
type stubbornSource struct {
	name     string
	produced atomic.Int64
}

func (s *stubbornSource) Name() string { return s.name }
func (s *stubbornSource) Run(ctx context.Context, emit func(Record) error) error {
	for i := 0; ; i++ {
		rec := Record{Time: testBase.Add(time.Duration(i) * time.Millisecond), Data: []byte(fmt.Sprintf("x-%d", i))}
		if err := emit(rec); err != nil {
			return err
		}
		s.produced.Add(1)
	}
}

// drainHandler holds its consumer at the first Apply of each of the
// first two batches until the queue behind it is full, so the second
// batch is a full queue too. At the second hold it cancels the run and
// waits for the drain deadline to discard the queue (shed non-zero).
// It counts the Apply calls begun after that. Only the source's one
// consumer calls Apply.
type drainHandler struct {
	captureHandler
	cancel            context.CancelFunc
	produced          *atomic.Int64
	ingested, shed    *obs.Counter
	capacity, batches int
	lastIngested      int64
	late              int
	hung              string
}

func (h *drainHandler) Apply(r Record) error {
	if h.shed.Value() > 0 {
		h.late++
	}
	// A batch is journaled before its first record is applied.
	if in := h.ingested.Value(); in != h.lastIngested {
		h.lastIngested = in
		h.batches++
		if h.batches <= 2 {
			h.await("a full queue", func() bool { return h.produced.Load()-h.ingested.Value() == int64(h.capacity) })
		}
		if h.batches == 2 {
			h.cancel()
			h.await("the drain deadline's discard", func() bool { return h.shed.Value() > 0 })
		}
	}
	return h.captureHandler.Apply(r)
}

// await polls cond; its 5 s guard turns a hang into a failure.
func (h *drainHandler) await(what string, cond func() bool) {
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			h.hung = what
			return
		}
	}
}

// TestDrainTimeoutBoundsShutdown: a cancel while the consumer is in the
// middle of a batch with a full queue behind it. Past the drain
// deadline the queue is discarded and accounted as shed, and the
// consumer begins no Apply after that, though its batch is not done.
// Every record the source produced is either ingested (journaled,
// whether or not it was applied) or shed. No bound reads the clock:
// the handler orders the cancel and the deadline, and the 5 s guards
// only turn a hang into a failure.
func TestDrainTimeoutBoundsShutdown(t *testing.T) {
	const capacity = 512
	reg := obs.NewRegistry()
	src := &stubbornSource{name: "firehose"}
	h := &drainHandler{capacity: capacity, produced: &src.produced}
	h.streams = make(map[string][]string)
	sup, _, err := New(Config{
		Dir:          t.TempDir(),
		Registry:     reg,
		QueueSize:    capacity,
		Policy:       Block,
		DrainTimeout: 25 * time.Millisecond,
	}, h, src)
	if err != nil {
		t.Fatal(err)
	}
	h.ingested, h.shed = reg.Counter("serve.ingested.firehose"), reg.Counter("serve.shed.firehose")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h.cancel = cancel
	runDone := make(chan error, 1)
	go func() { runDone <- sup.Run(ctx) }()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not respect its deadline")
	}
	if h.hung != "" {
		t.Fatalf("the handler waited 5 s for %s", h.hung)
	}
	shed := h.shed.Value()
	if shed != capacity {
		t.Errorf("shed %d, want the full queue of %d the deadline discarded", shed, capacity)
	}
	if h.late != 0 {
		t.Errorf("the consumer began %d Apply calls after the deadline discarded its queue, want none", h.late)
	}
	ingested, produced := h.ingested.Value(), src.produced.Load()
	if ingested+shed != produced {
		t.Errorf("ingested %d + shed %d != produced %d: records unaccounted", ingested, shed, produced)
	}
}

// wedgedSource emits its records, then blocks in its own read until
// the cancel, as a reader that stalls forever does.
type wedgedSource struct{ replaySource }

func (s *wedgedSource) Run(ctx context.Context, emit func(Record) error) error {
	if err := s.replaySource.Run(ctx, emit); err != nil {
		return err
	}
	<-ctx.Done()
	return ctx.Err()
}

// TestWedgedSourceStallsOnlyItself: a source wedged in its own read
// holds up no other source, whose every record is applied while it
// stalls, and the cancel ends the run without a restart.
func TestWedgedSourceStallsOnlyItself(t *testing.T) {
	reg := obs.NewRegistry()
	h := newCaptureHandler()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	applied := 0 // one goroutine at a time applies
	handler := HandlerFunc(func(r Record) error {
		if applied++; applied == 5+200 {
			cancel()
		}
		return h.Apply(r)
	})
	sup, _, err := New(Config{Dir: t.TempDir(), Registry: reg, QueueSize: 16, Policy: Block}, handler,
		&wedgedSource{replaySource{name: "wedged", recs: records("w", 5)}},
		&replaySource{name: "healthy", recs: records("h", 200)})
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- sup.Run(ctx) }()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the run did not end: a wedged source held up the others, or the cancel")
	}
	want := "healthy: " + strings.Join(records("h", 200), ",") + "\nwedged: " + strings.Join(records("w", 5), ",") + "\n"
	if got := h.report(); got != want {
		t.Errorf("report:\n%s\nwant:\n%s", got, want)
	}
	if got := reg.Counter("serve.source.wedged.restarts").Value(); got != 0 {
		t.Errorf("the wedged source restarted %d times, want none", got)
	}
}

func TestReadyHandlerTracksLifecycle(t *testing.T) {
	sup, _, err := New(Config{Dir: t.TempDir()}, newCaptureHandler(), &stubbornSource{name: "src"})
	if err != nil {
		t.Fatal(err)
	}
	get := func() int {
		rr := httptest.NewRecorder()
		sup.ReadyHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/ready", nil))
		return rr.Code
	}
	if got := get(); got != 503 {
		t.Errorf("ready before Run = %d, want 503", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- sup.Run(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && get() != 200 {
		time.Sleep(time.Millisecond)
	}
	if got := get(); got != 200 {
		t.Fatalf("ready while running = %d, want 200", got)
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	if got := get(); got != 503 {
		t.Errorf("ready after shutdown = %d, want 503", got)
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	in := Record{
		Source: "isis",
		Time:   time.Date(2026, time.March, 5, 6, 7, 8, 910111213, time.UTC),
		Data:   []byte{0x00, 0x01, 0xFF, 0xA5},
	}
	out, err := decodeRecord(encodeRecord(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != in.Source || !out.Time.Equal(in.Time) || string(out.Data) != string(in.Data) {
		t.Errorf("roundtrip: %+v != %+v", out, in)
	}
	if _, err := decodeRecord([]byte{5, 'a'}); err == nil {
		t.Error("torn record decoded")
	}
	if _, err := decodeRecord(nil); err == nil {
		t.Error("empty record decoded")
	}
}

func TestNewValidatesConfig(t *testing.T) {
	if _, _, err := New(Config{}, newCaptureHandler()); err == nil {
		t.Error("New accepted an empty Dir")
	}
	if _, _, err := New(Config{Dir: t.TempDir()}, nil); err == nil {
		t.Error("New accepted a nil handler")
	}
	if _, _, err := New(Config{Dir: t.TempDir()}, newCaptureHandler(),
		&brokenSource{name: "dup"}, &brokenSource{name: "dup"}); err == nil {
		t.Error("New accepted duplicate source names")
	}
}
