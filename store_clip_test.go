package netfail

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"netfail/internal/store"
	"netfail/internal/topo"
)

// The clipped plan's oracle is the scanning fallback: the same store
// with its postings and sparse indexes deleted answers every query by
// reading each segment from its first record, and a link (or host) +
// window query against the indexed copy must return exactly that.

// indexStride is capture's sparse-index stride: record i·512 of a
// segment is the one an index entry is stamped from.
const indexStride = 512

// clipCase is one (key, window) question.
type clipCase struct {
	key      string
	from, to time.Time
}

// clipCases draws n seeded cases around the records of one resource:
// keys[i] and times[i] are record i's link or host and its stamp, in
// segment order; spans[i] is how long past its stamp record i still
// matches (a failure's duration; nil for point records).
func clipCases(rng *rand.Rand, n int, start, end time.Time, keys []string, times []time.Time, spans []time.Duration) []clipCase {
	ms := func(t time.Time) time.Time { return time.UnixMilli(t.UnixMilli()).UTC() }
	var out []clipCase
	add := func(key string, from, to time.Time) { out = append(out, clipCase{key, from, to}) }

	// The edges a stride boundary can get wrong, on every record an
	// index entry is stamped from and on its predecessor: a window
	// ending just past the record's instant (its millisecond equals
	// to's, so only a strict TsMs > to keeps it), ending exactly on it,
	// and starting exactly on it.
	for i := 0; i < len(keys); i += indexStride {
		for _, j := range []int{i, max(i-1, 0)} {
			k, t := keys[j], times[j]
			add(k, t.Add(-time.Hour), t.Add(time.Nanosecond))
			add(k, t.Add(-time.Hour), t)
			add(k, t, t.Add(time.Hour))
			add(k, ms(t), ms(t).Add(time.Millisecond))
			add(k, ms(t).Add(-time.Millisecond), ms(t))
		}
	}
	// The longest-lived records, asked about in their last instant: the
	// seek must reach back the whole span.
	for i, d := range spans {
		if d > 12*time.Hour {
			last := times[i].Add(d)
			add(keys[i], last.Add(-time.Nanosecond), last.Add(time.Hour))
			add(keys[i], last.Add(-time.Millisecond), last)
			add(keys[i], last, last.Add(time.Hour)) // ended: no overlap
		}
	}

	campaign := end.Sub(start)
	for len(out) < n {
		i := rng.Intn(len(keys))
		k, t := keys[i], times[i]
		if rng.Intn(4) == 0 { // any key, not the one that has a record here
			k = keys[rng.Intn(len(keys))]
		}
		width := time.Duration(rng.Int63n(int64(10 * 24 * time.Hour)))
		at := start.Add(time.Duration(rng.Int63n(int64(campaign))))
		switch rng.Intn(12) {
		case 0: // before the campaign
			add(k, start.Add(-width-time.Hour), start.Add(-time.Hour))
		case 1: // after it
			add(k, end.Add(time.Hour), end.Add(time.Hour+width))
		case 2: // straddling its start
			add(k, start.Add(-width), start.Add(width))
		case 3: // straddling its end
			add(k, end.Add(-width), end.Add(width))
		case 4: // all of it and more
			add(k, start.Add(-width), end.Add(width))
		case 5: // zero-width, on a record
			add(k, t, t)
		case 6: // to before from, around a record
			add(k, t.Add(width), t.Add(-width))
		case 7: // edges on a record's millisecond
			add(k, ms(t), ms(t).Add(time.Duration(rng.Intn(3))*time.Millisecond))
		case 8: // a window that opens inside a record's span
			if spans != nil {
				add(k, t.Add(spans[i]/2), t.Add(spans[i]/2+width))
				continue
			}
			fallthrough
		case 9: // a narrow window holding a record
			add(k, t.Add(-time.Duration(rng.Int63n(int64(time.Hour)))), t.Add(time.Duration(rng.Int63n(int64(time.Hour)))+1))
		default: // anywhere, any width
			add(k, at, at.Add(width))
		}
	}
	return out
}

// TestStoreClippedPlanMatchesScan: on a 60-day store, at least a
// thousand seeded (link | host, window) questions per resource — the
// indexed store's answer, which fetches the key's postings clipped to
// the window through the sparse index, equals the answer of the same
// store with postings and indexes deleted, which scans.
func TestStoreClippedPlanMatchesScan(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	ctx := context.Background()
	cfg := SimulationConfig{
		Seed:  1,
		Start: time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2011, 3, 2, 0, 0, 0, 0, time.UTC),
	}
	dir := t.TempDir()
	if _, err := Run(ctx, cfg, WithStoreDir(dir)); err != nil {
		t.Fatal(err)
	}
	bare := copyStore(t, dir)
	entries, err := os.ReadDir(bare)
	if err != nil {
		t.Fatal(err)
	}
	removed := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".idx") || strings.HasSuffix(e.Name(), ".pst") {
			if err := os.Remove(filepath.Join(bare, e.Name())); err != nil {
				t.Fatal(err)
			}
			removed++
		}
	}
	if removed < 6 {
		t.Fatalf("removed %d index and postings files, want the failures, transitions and message pairs", removed)
	}
	indexed, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	scanning, err := store.Open(bare)
	if err != nil {
		t.Fatal(err)
	}

	const perResource = 1200
	rng := rand.New(rand.NewSource(24))

	// run asks both stores every case and reports how many answers held
	// a record; an answer never differs.
	run := func(t *testing.T, cases []clipCase, ask func(s *store.Store, c clipCase) (any, int, error)) {
		t.Helper()
		if len(cases) < perResource {
			t.Fatalf("%d cases, want at least %d", len(cases), perResource)
		}
		nonEmpty := 0
		for _, c := range cases {
			got, n, err := ask(indexed, c)
			if err != nil {
				t.Fatalf("%q [%s, %s): %v", c.key, c.from.Format(time.RFC3339Nano), c.to.Format(time.RFC3339Nano), err)
			}
			want, _, err := ask(scanning, c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%q [%s, %s): clipped plan and scan disagree", c.key, c.from.Format(time.RFC3339Nano), c.to.Format(time.RFC3339Nano))
				compareJSON(t, "clipped answer", got, want)
			}
			if n > 0 {
				nonEmpty++
			}
		}
		if nonEmpty < len(cases)/4 {
			t.Errorf("only %d of %d cases had a non-empty answer: the test is not exercising the fetch", nonEmpty, len(cases))
		}
	}

	t.Run("failures", func(t *testing.T) {
		all, err := scanning.Failures(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) < 3*indexStride {
			t.Fatalf("%d failures: too few for the index to have strides to clip to", len(all))
		}
		keys, times, spans := make([]string, len(all)), make([]time.Time, len(all)), make([]time.Duration, len(all))
		for i, r := range all {
			keys[i], times[i], spans[i] = string(r.Link), r.Start, r.End.Sub(r.Start)
		}
		run(t, clipCases(rng, perResource, cfg.Start, cfg.End, keys, times, spans),
			func(s *store.Store, c clipCase) (any, int, error) {
				r, err := s.Failures(ctx, store.WithLink(topo.LinkID(c.key)), store.WithWindow(c.from, c.to))
				return r, len(r), err
			})
	})

	t.Run("transitions", func(t *testing.T) {
		all, err := scanning.Transitions(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) < 3*indexStride {
			t.Fatalf("%d transitions: too few for the index to have strides to clip to", len(all))
		}
		keys, times := make([]string, len(all)), make([]time.Time, len(all))
		for i, r := range all {
			keys[i], times[i] = string(r.Link), r.Time
		}
		run(t, clipCases(rng, perResource, cfg.Start, cfg.End, keys, times, nil),
			func(s *store.Store, c clipCase) (any, int, error) {
				r, err := s.Transitions(ctx, store.WithLink(topo.LinkID(c.key)), store.WithWindow(c.from, c.to))
				return r, len(r), err
			})
	})

	t.Run("messages", func(t *testing.T) {
		// One segment's worth: record i of the listing is ordinal i of
		// the segment only in the first.
		all, err := scanning.Messages(ctx, store.WithLimit(int(scanning.Manifest().Messages[0].Records)))
		if err != nil {
			t.Fatal(err)
		}
		if len(all) < 3*indexStride {
			t.Fatalf("%d messages: too few for the index to have strides to clip to", len(all))
		}
		keys, times := make([]string, len(all)), make([]time.Time, len(all))
		for i, r := range all {
			keys[i], times[i] = r.Host, r.Time
		}
		run(t, clipCases(rng, perResource, cfg.Start, cfg.End, keys, times, nil),
			func(s *store.Store, c clipCase) (any, int, error) {
				r, err := s.Messages(ctx, store.WithHost(c.key), store.WithWindow(c.from, c.to))
				return r, len(r), err
			})
	})

	t.Run("flaps", func(t *testing.T) {
		// Flaps reaches the clipped plan through Failures; a handful of
		// windows is enough to hold the plumbing.
		links, err := indexed.Links(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			link := links[rng.Intn(len(links))].ID
			from := cfg.Start.Add(time.Duration(rng.Int63n(int64(cfg.End.Sub(cfg.Start)))))
			opts := []store.Option{store.WithLink(link), store.WithWindow(from, from.Add(5*24*time.Hour))}
			got, err := indexed.Flaps(ctx, store.SourceSyslog, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := scanning.Flaps(ctx, store.SourceSyslog, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("flaps on %q from %s: clipped plan and scan disagree", link, from.Format(time.RFC3339))
			}
		}
	})
}

// TestStoreFlapsLeavesCallerOptionsAlone: Flaps adds its source filter
// to a slice of its own. Appending to the caller's — api.ParseQuery
// hands over three options in a four-slot array — wrote the filter
// into the spare slot of an array two requests may share: a data race,
// and with two sources the wrong source's failures. Run under -race.
func TestStoreFlapsLeavesCallerOptionsAlone(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	if _, err := Run(ctx, smallConfig(2), WithStoreDir(dir)); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[store.Source]string{}
	for _, src := range []store.Source{store.SourceSyslog, store.SourceISIS} {
		eps, err := s.Flaps(ctx, src)
		if err != nil || len(eps) == 0 {
			t.Fatalf("%s: %d episodes, %v", src, len(eps), err)
		}
		want[src] = fmt.Sprint(eps)
	}
	if want[store.SourceSyslog] == want[store.SourceISIS] {
		t.Fatal("the two sources have the same episodes: the test cannot tell them apart")
	}

	backing := make([]store.Option, 1, 4)
	backing[0] = store.WithLimit(0)
	shared := backing[:1:4] // spare capacity, as ParseQuery's appends leave
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		src := store.Source(g % 2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				eps, err := s.Flaps(ctx, src, shared...)
				if err != nil {
					t.Error(err)
					return
				}
				if fmt.Sprint(eps) != want[src] {
					t.Errorf("%s: Flaps answered with another call's source filter", src)
					return
				}
			}
		}()
	}
	wg.Wait()
}
