package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"netfail/internal/topo"
	"netfail/internal/trace"
)

// TestTransitionRecordRejectsUnknownEnums: a transition record whose
// stream, direction or kind byte lies past the last value a writer
// emits is damage.
func TestTransitionRecordRejectsUnknownEnums(t *testing.T) {
	last := appendTransitionRecord(nil, StreamIPReach, trace.Up, trace.KindIPReach, 1, 2, 3)
	if _, _, _, _, _, _, err := decodeTransitionRecord(last); err != nil {
		t.Fatalf("record of the last stream, direction and kind rejected: %v", err)
	}
	for i, b := range [3]byte{byte(StreamIPReach) + 1, byte(trace.Up) + 1, byte(trace.KindIPReach) + 1} {
		rec := slices.Clone(last)
		rec[i] = b
		if _, _, _, _, _, _, err := decodeTransitionRecord(rec); err == nil {
			t.Errorf("record with byte %d = %d decoded", i, b)
		}
	}
}

// mergeCase shapes the runs one case hands the writer.
type mergeCase struct {
	name string
	// sorted leaves each run in canonical order, as the analysis's
	// streams are; otherwise runs arrive shuffled.
	sorted bool
	// times is how many distinct instants records draw from: a few
	// force equal-time ties that the other fields must break.
	times int
	// dups repeats that many records of every run.
	dups int
}

var mergeCases = []mergeCase{
	{name: "shuffled runs", sorted: true, times: 10000},
	{name: "unsorted runs", sorted: false, times: 10000},
	{name: "equal-time ties", sorted: true, times: 3},
	{name: "unsorted equal-time ties", sorted: false, times: 2},
	{name: "duplicate records", sorted: true, times: 50, dups: 40},
	{name: "unsorted duplicate records", sorted: false, times: 50, dups: 40},
}

var mergeLinks = []topo.LinkID{"a:0-b:0", "a:1-c:0", "b:1-c:1", "c:2-d:0"}

func mergeLinkOrd() map[string]uint32 {
	ord := make(map[string]uint32, len(mergeLinks))
	for i, l := range mergeLinks {
		ord[string(l)] = uint32(i)
	}
	return ord
}

// genRuns builds one run per tag with gen, shaped by c.
func genRuns[T any](rng *rand.Rand, c mergeCase, tags int, gen func(tag int, at time.Time) T, cmp func(a, b T) int) [][]T {
	base := time.Date(2011, 3, 1, 0, 0, 0, 0, time.UTC)
	runs := make([][]T, tags)
	for tag := range runs {
		n := 100 + rng.Intn(200)
		if tag == tags-1 {
			n = 0 // an empty run merges like any other
		}
		for i := 0; i < n; i++ {
			at := base.Add(time.Duration(rng.Intn(c.times)) * 1500 * time.Millisecond)
			runs[tag] = append(runs[tag], gen(tag, at))
		}
		for i := 0; i < c.dups && n > 0; i++ {
			runs[tag] = append(runs[tag], runs[tag][rng.Intn(n)])
		}
		if c.sorted {
			slices.SortFunc(runs[tag], cmp)
		} else {
			rng.Shuffle(len(runs[tag]), func(i, j int) { runs[tag][i], runs[tag][j] = runs[tag][j], runs[tag][i] })
		}
	}
	return runs
}

func cloneRuns[T any](runs [][]T) [][]T {
	out := make([][]T, len(runs))
	for i, r := range runs {
		out[i] = slices.Clone(r)
	}
	return out
}

// sameFiles fails unless dirs a and b hold identical bytes under names.
func sameFiles(t *testing.T, a, b string, names ...string) {
	t.Helper()
	for _, name := range names {
		x, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			t.Fatal(err)
		}
		y, err := os.ReadFile(filepath.Join(b, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			t.Errorf("%s: merged runs wrote %d bytes, the reference sort %d, and they differ", name, len(x), len(y))
		}
	}
}

// TestWriterMergeMatchesSort: the writer merges its per-source and
// per-stream runs into exactly the bytes that framing the sorted
// concatenation writes — on interleaved, shuffled, tied and duplicated
// records alike.
func TestWriterMergeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range mergeCases {
		t.Run(c.name, func(t *testing.T) {
			fruns := genRuns(rng, c, 3, func(tag int, at time.Time) FailureRecord {
				return FailureRecord{
					Source: Source(tag % 2), Link: mergeLinks[rng.Intn(len(mergeLinks))],
					Start: at, End: at.Add(time.Duration(rng.Intn(3)) * time.Second),
				}
			}, compareFailureRecords)
			truns := genRuns(rng, c, 6, func(tag int, at time.Time) TransitionRecord {
				return TransitionRecord{
					Stream: Stream(tag % 5), Time: at, Link: mergeLinks[rng.Intn(len(mergeLinks))],
					Dir: []trace.Direction{trace.Down, trace.Up}[rng.Intn(2)], Kind: trace.Kind(rng.Intn(2)),
					Reporter: []string{"a", "b", "c"}[rng.Intn(3)],
				}
			}, compareTransitionRecords)

			fref, tref := slices.Concat(fruns...), slices.Concat(truns...)
			SortFailureRecords(fref)
			SortTransitionRecords(tref)

			var fgot []FailureRecord
			if err := mergeRuns(cloneRuns(fruns), compareFailureRecords, func(r *FailureRecord) error {
				fgot = append(fgot, *r)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fgot, fref) {
				t.Error("merged failure order differs from the reference sort")
			}

			merged, ref := t.TempDir(), t.TempDir()
			wm, err := NewWriter(merged)
			if err != nil {
				t.Fatal(err)
			}
			wr, err := NewWriter(ref)
			if err != nil {
				t.Fatal(err)
			}
			linkOrd := mergeLinkOrd()
			fm, err := wm.writeFailures(fruns, linkOrd)
			if err != nil {
				t.Fatal(err)
			}
			fr, err := wr.writeFailures([][]FailureRecord{fref}, linkOrd)
			if err != nil {
				t.Fatal(err)
			}
			tm, err := wm.writeTransitions(truns, linkOrd)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := wr.writeTransitions([][]TransitionRecord{tref}, linkOrd)
			if err != nil {
				t.Fatal(err)
			}
			if fm != fr || tm != tr || !slices.Equal(wm.man.Reporters, wr.man.Reporters) {
				t.Errorf("metadata differs: failures %+v vs %+v, transitions %+v vs %+v, reporters %v vs %v",
					fm, fr, tm, tr, wm.man.Reporters, wr.man.Reporters)
			}
			sameFiles(t, merged, ref, FailuresSegment, FailuresIndex, FailuresPostings,
				TransitionsSegment, TransitionsIndex, TransitionsPostings)
		})
	}
}
