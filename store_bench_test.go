package netfail

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"netfail/internal/store"
	"netfail/internal/topo"
)

// Store benchmarks over the month-long seed campaign. The pair
// BenchmarkStoreWindowQueryWarm / BenchmarkAnalyzeCaptureDirMonth is
// the store's reason to exist: answering a one-day, one-link window
// question from the warm store must be orders of magnitude (>=100x,
// per the acceptance bar) cheaper than re-running the batch pipeline
// to recompute it.

// benchCapture lazily spills the month campaign once and analyzes it
// once with a store attached; every store benchmark, and the window
// query's alloc pin, shares the result.
var benchCapture struct {
	once     sync.Once
	campDir  string
	storeDir string
	link     string
	day      time.Time // the UTC day the first failure, link's, began on
	err      error
}

// TestMain removes the directory every once-per-binary fixture is
// written under.
func TestMain(m *testing.M) {
	code := m.Run()
	if dir, err := fixtureDir(); err == nil {
		os.RemoveAll(dir)
	}
	os.Exit(code)
}

func benchCaptureSetup(tb testing.TB) (campDir, storeDir, link string, day time.Time) {
	tb.Helper()
	benchCapture.once.Do(func() {
		ctx := context.Background()
		dir, err := scratch()
		if err != nil {
			benchCapture.err = err
			return
		}
		benchCapture.campDir = filepath.Join(dir, "campaign")
		benchCapture.storeDir = filepath.Join(dir, "store")
		if _, err := SimulateToCapture(ctx, benchMonthConfig(1), FabricSpec{}, benchCapture.campDir); err != nil {
			benchCapture.err = err
			return
		}
		if _, _, err := AnalyzeCaptureDir(ctx, benchCapture.campDir, false,
			WithStoreDir(benchCapture.storeDir)); err != nil {
			benchCapture.err = err
			return
		}
		s, err := store.Open(benchCapture.storeDir)
		if err != nil {
			benchCapture.err = err
			return
		}
		fails, err := s.Failures(ctx, store.WithLimit(1))
		if err == nil && len(fails) == 0 {
			err = fmt.Errorf("benchmark campaign produced no failures")
		}
		if err != nil {
			benchCapture.err = err
			return
		}
		benchCapture.link = string(fails[0].Link)
		benchCapture.day = fails[0].Start.Truncate(24 * time.Hour)
	})
	if benchCapture.err != nil {
		tb.Fatal(benchCapture.err)
	}
	return benchCapture.campDir, benchCapture.storeDir, benchCapture.link, benchCapture.day
}

// BenchmarkStoreBuild measures an analysis with the store attached:
// the driver writes message segments as it reads the campaign and the
// failures, transitions and tables once the comparison is done, so the
// store's one-time cost is this minus BenchmarkAnalyzeMonth.
func BenchmarkStoreBuild(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	camp, err := Simulate(ctx, benchMonthConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(ctx, camp, WithStoreDir(filepath.Join(b.TempDir(), "store"))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreOpen measures the cold open: manifest, sparse
// indexes, and postings load eagerly; segments stay on disk.
func BenchmarkStoreOpen(b *testing.B) {
	b.ReportAllocs()
	_, storeDir, _, _ := benchCaptureSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Open(storeDir); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStoreWindowQuery returns one op, the acceptance-bar query: one
// link, one day, failures plus transitions, against an already-open
// store. The link and the day are the campaign's first failure's, so
// the answer is never empty: an empty one opens no segment and would
// measure the posting-list clip alone.
func benchStoreWindowQuery(tb testing.TB) func() {
	_, storeDir, link, from := benchCaptureSetup(tb)
	ctx := context.Background()
	s, err := store.Open(storeDir)
	if err != nil {
		tb.Fatal(err)
	}
	opts := []store.Option{store.WithLink(topo.LinkID(link)), store.WithWindow(from, from.AddDate(0, 0, 1))}
	// Warm pass: touch the segments once so the measured region sees
	// steady state (page cache, grown decode buffers).
	fails, err := s.Failures(ctx, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	trans, err := s.Transitions(ctx, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	if len(fails) == 0 || len(trans) == 0 {
		tb.Fatalf("%s on %s: %d failures, %d transitions; the pinned window must hold both",
			link, from.Format(time.DateOnly), len(fails), len(trans))
	}
	return func() {
		if _, err := s.Failures(ctx, opts...); err != nil {
			tb.Fatal(err)
		}
		if _, err := s.Transitions(ctx, opts...); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkStoreWindowQueryWarm(b *testing.B) {
	b.ReportAllocs()
	op := benchStoreWindowQuery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkAnalyzeCaptureDirMonth is the window query's alternative
// universe: recomputing the same answer by re-running the batch
// pipeline over the capture directory.
func BenchmarkAnalyzeCaptureDirMonth(b *testing.B) {
	b.ReportAllocs()
	campDir, _, _, _ := benchCaptureSetup(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _, err := AnalyzeCaptureDir(ctx, campDir, false)
		if err != nil {
			b.Fatal(err)
		}
		if len(st.Analysis.SyslogFailures) == 0 {
			b.Fatal("empty analysis")
		}
	}
}
