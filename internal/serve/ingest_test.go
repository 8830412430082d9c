package serve

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"netfail/internal/checkpoint"
	"netfail/internal/obs"
)

// encodeRecord is appendRecord into a fresh buffer: a record's WAL
// payload as the daemon journals it.
func encodeRecord(r Record) []byte { return appendRecord(nil, r) }

// fixedSource emits prebuilt records once, allocating nothing itself.
type fixedSource struct {
	name string
	recs []Record
}

func (s *fixedSource) Name() string { return s.name }

func (s *fixedSource) Run(_ context.Context, emit func(Record) error) error {
	for _, r := range s.recs {
		if err := emit(r); err != nil {
			return err
		}
	}
	return nil
}

// lspRecords builds n records of a 64-byte payload for source name.
func lspRecords(name string, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Source: name, Time: testBase.Add(time.Duration(i) * time.Second),
			Data: []byte(fmt.Sprintf("%-64d", i))}
	}
	return recs
}

var discard = HandlerFunc(func(Record) error { return nil })

// TestIngestAllocBudget pins the serialized ingest path — encode,
// journal, apply, count, seal at the daemon's cadence — to no
// per-record allocation, fed in batches of 1000 records, a size the
// seal cadence is no multiple of, so batches are cut at seals too:
// the records are framed into a buffer the store reuses and every
// counter is resolved in New. Keeping the history in RAM for a
// snapshot, or encoding into a fresh slice, costs at least one
// allocation per record and fails the pin.
func TestIngestAllocBudget(t *testing.T) {
	const n, batch = 8192, 1000
	sup, _, err := New(Config{Dir: t.TempDir(), SnapshotEvery: 4096, Registry: obs.NewRegistry()},
		discard, &fixedSource{name: "isis"})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.store.Close()
	recs := lspRecords("isis", n)
	avg := testing.AllocsPerRun(1, func() {
		for lo := 0; lo < n; lo += batch {
			if err := sup.ingest(recs[lo:min(lo+batch, n)]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perRecord := avg / n; perRecord > 0.01 {
		t.Errorf("ingest allocates %.3f times per record, budget is 0.01", perRecord)
	}
}

// signalSource is fixedSource that closes emitted once every record
// is queued.
type signalSource struct {
	fixedSource
	emitted chan struct{}
}

func (s *signalSource) Run(ctx context.Context, emit func(Record) error) error {
	defer close(s.emitted)
	return s.fixedSource.Run(ctx, emit)
}

// TestGroupCommitIsRealAndOrdered holds the first record in the
// handler until the source has queued all k, so the consumer's next
// take is the rest in one batch. Fewer than k WAL writes must carry
// them, the handler must see them in emit order, and the state
// directory must be byte for byte what per-record appends, sealed
// every SnapshotEvery, leave: batches are cut at the seals, so every
// sealed segment is named for its first sequence and holds exactly
// SnapshotEvery records, under contiguous sequences in emit order.
func TestGroupCommitIsRealAndOrdered(t *testing.T) {
	const k, every = 64, 16
	dir := t.TempDir()
	reg := obs.NewRegistry()
	recs := lspRecords("alpha", k)
	src := &signalSource{fixedSource: fixedSource{name: "alpha", recs: recs}, emitted: make(chan struct{})}
	var applied []string
	h := HandlerFunc(func(r Record) error {
		if len(applied) == 0 {
			<-src.emitted
		}
		applied = append(applied, string(r.Data))
		return nil
	})
	sup, _, err := New(Config{Dir: dir, Registry: reg, SnapshotEvery: every}, h, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	writes := reg.Counter("serve.wal.writes").Value()
	if appends := reg.Counter("serve.wal.appends").Value(); appends != k || writes == 0 || writes >= k {
		t.Errorf("serve.wal.appends %d in serve.wal.writes %d; want %d in fewer than %d", appends, writes, k, k)
	}
	t.Logf("%d records in %d writes", k, writes)
	if len(applied) != k {
		t.Fatalf("applied %d records, want %d", len(applied), k)
	}
	for i, r := range recs {
		if applied[i] != string(r.Data) {
			t.Fatalf("applied record %d = %q, want %q", i, applied[i], r.Data)
		}
	}

	wantDir := t.TempDir()
	st, _, err := checkpoint.Open(wantDir)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if _, err := st.Append(encodeRecord(r)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%every == 0 {
			if err := st.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	want, _ := filepath.Glob(filepath.Join(wantDir, "wal-*.log"))
	if len(got) != len(want) || len(want) != k/every+1 {
		t.Fatalf("WAL segments %v, want %d: %v", got, k/every+1, want)
	}
	for i := range want {
		g, gerr := os.ReadFile(got[i])
		w, werr := os.ReadFile(want[i])
		if gerr != nil || werr != nil {
			t.Fatal(gerr, werr)
		}
		if filepath.Base(got[i]) != filepath.Base(want[i]) || !bytes.Equal(g, w) {
			t.Errorf("segment %s (%d bytes) differs from per-record appends' %s (%d bytes)",
				filepath.Base(got[i]), len(g), filepath.Base(want[i]), len(w))
		}
	}
}

// TestCheckpointErrorCountsIngestedRecord: a checkpoint that fails
// after its record was appended and applied ends the run with the
// error, but the record is in and is counted as ingested — and the
// append hook sees it — so ingested + shed == produced still holds.
func TestCheckpointErrorCountsIngestedRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	reg := obs.NewRegistry()
	applied, hooked := 0, 0
	h := HandlerFunc(func(Record) error {
		if applied++; applied == 5 {
			os.RemoveAll(dir)
		}
		return nil
	})
	sup, _, err := New(Config{Dir: dir, Registry: reg, SnapshotEvery: 5, AppendHook: func(total int) { hooked = total }},
		h, &replaySource{name: "alpha", recs: records("a", 20)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Run(context.Background()); err == nil {
		t.Fatal("Run succeeded though the checkpoint directory was removed")
	}
	appends := reg.Counter("serve.wal.appends").Value()
	ingested := reg.Counter("serve.ingested.alpha").Value()
	if appends != 5 || ingested != 5 || hooked != 5 {
		t.Errorf("serve.wal.appends %d, serve.ingested.alpha %d, hook total %d; want 5 each", appends, ingested, hooked)
	}
}

// interleave is the two record lists as one journal order.
func interleave(a, b []Record) []Record {
	var out []Record
	for i := 0; i < max(len(a), len(b)); i++ {
		if i < len(a) {
			out = append(out, a[i])
		}
		if i < len(b) {
			out = append(out, b[i])
		}
	}
	return out
}

// sourceRecords is what replaySource emits for recs under name.
func sourceRecords(name string, recs []string) []Record {
	out := make([]Record, len(recs))
	for i, r := range recs {
		out[i] = Record{Source: name, Time: testBase.Add(time.Duration(i) * time.Second), Data: []byte(r)}
	}
	return out
}

// uninterruptedReport runs both sources to completion in a fresh
// directory.
func uninterruptedReport(t *testing.T, alpha, beta []string) string {
	t.Helper()
	h := newCaptureHandler()
	sup, _, err := New(Config{Dir: t.TempDir()}, h,
		&replaySource{name: "alpha", recs: alpha}, &replaySource{name: "beta", recs: beta})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return h.report()
}

// resume recovers dir under New, resumes each source at its recovered
// count, runs to completion and returns the report and the recovery.
func resume(t *testing.T, dir string, alpha, beta []string) (string, *Recovered) {
	t.Helper()
	h := newCaptureHandler()
	alphaSrc := &replaySource{name: "alpha", recs: alpha}
	betaSrc := &replaySource{name: "beta", recs: beta}
	sup, rcv, err := New(Config{Dir: dir, SnapshotEvery: 5}, h, alphaSrc, betaSrc)
	if err != nil {
		t.Fatal(err)
	}
	alphaSrc.start = rcv.PerSource["alpha"]
	betaSrc.start = rcv.PerSource["beta"]
	if err := sup.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return h.report(), rcv
}

// TestResumeFromParentStateDir: a state directory in the format the
// daemon wrote before it sealed segments — the whole history
// snapshotted at its cadence, then appends, then a kill mid-segment —
// resumes to the uninterrupted report, recovers cleanly afterwards,
// and keeps its snapshot.
func TestResumeFromParentStateDir(t *testing.T) {
	alpha, beta := records("a", 40), records("b", 25)
	want := uninterruptedReport(t, alpha, beta)

	const killAfter, snapshotEvery = 23, 5
	dir := t.TempDir()
	st, _, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	var history []checkpoint.Record
	for i, r := range interleave(sourceRecords("alpha", alpha), sourceRecords("beta", beta))[:killAfter] {
		data := encodeRecord(r)
		seq, err := st.Append(data)
		if err != nil {
			t.Fatal(err)
		}
		history = append(history, checkpoint.Record{Seq: seq, Data: data})
		if (i+1)%snapshotEvery == 0 {
			if err := st.Snapshot(history); err != nil {
				t.Fatal(err)
			}
		}
	}
	// No Close: the parent daemon was SIGKILLed here.

	got, rcv := resume(t, dir, alpha, beta)
	if rcv.Records != killAfter || !rcv.Report.Clean() {
		t.Fatalf("recovered %d records (%s), want the %d durable at the kill", rcv.Records, rcv.Report, killAfter)
	}
	if got != want {
		t.Errorf("resumed report differs from uninterrupted run:\n%s\nwant:\n%s", got, want)
	}

	h := newCaptureHandler()
	_, again, err := New(Config{Dir: dir, Strict: true}, h)
	if err != nil {
		t.Fatal(err)
	}
	if h.report() != want || again.Records != len(alpha)+len(beta) || !again.Report.Clean() {
		t.Errorf("second recovery: %d records (%s), report:\n%s", again.Records, again.Report, h.report())
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.ckpt")); len(snaps) != 1 {
		t.Errorf("snapshots on disk after resume: %v, want the parent's one", snaps)
	}
}

// TestKillResumeAfterSealsMatchesUninterrupted is
// TestKillResumeMatchesUninterrupted with the kill landing after three
// seals, so recovery replays sealed segments and the active one.
func TestKillResumeAfterSealsMatchesUninterrupted(t *testing.T) {
	alpha, beta := records("a", 40), records("b", 25)
	want := uninterruptedReport(t, alpha, beta)

	// The kill lands at the first durable write that reaches killAfter:
	// a write journals a whole batch, so the durable total there may be
	// past it. The hook holds the ingest lock, so it freezes once.
	const killAfter = 17
	dir := t.TempDir()
	frozen := make(chan struct{})
	neverReleased := make(chan struct{})
	var durable int
	killedSup, _, err := New(Config{
		Dir:           dir,
		SnapshotEvery: 5,
		AppendHook: func(total int) {
			if total >= killAfter {
				durable = total
				close(frozen)
				<-neverReleased
			}
		},
	}, newCaptureHandler(), &replaySource{name: "alpha", recs: alpha}, &replaySource{name: "beta", recs: beta})
	if err != nil {
		t.Fatal(err)
	}
	go killedSup.Run(context.Background()) // abandoned on purpose: this is the kill
	select {
	case <-frozen:
	case <-time.After(10 * time.Second):
		t.Fatal("kill point never reached")
	}
	if wals, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(wals) != 4 {
		t.Fatalf("WAL segments at the kill: %v, want three sealed and the active one", wals)
	}

	got, rcv := resume(t, dir, alpha, beta)
	if rcv.Records != durable {
		t.Fatalf("recovered %d records, want the %d durable at the kill", rcv.Records, durable)
	}
	if got != want {
		t.Errorf("resumed report differs from uninterrupted run:\n%s\nwant:\n%s", got, want)
	}
}

// BenchmarkIngest runs the supervisor over n records at the daemon's
// default seal cadence. Its ns/record is flat in n: a checkpoint costs
// what arrived since the last one, not the history.
func BenchmarkIngest(b *testing.B) {
	for _, n := range []int{8192, 65536} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			recs := lspRecords("isis", n)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				b.StartTimer()
				sup, _, err := New(Config{Dir: dir, SnapshotEvery: 4096}, discard, &fixedSource{name: "isis", recs: recs})
				if err != nil {
					b.Fatal(err)
				}
				if err := sup.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
		})
	}
}
