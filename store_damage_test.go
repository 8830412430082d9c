package netfail

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"netfail/internal/capture"
	"netfail/internal/frame"
	"netfail/internal/store"
)

// Damage drills for the store: every component (segment, sparse
// index, postings, manifest) gets deterministically damaged, then the
// strict reader must refuse with an offset-accurate error and the
// lenient reader must salvage — returning a subset of the clean
// answers (indexes and postings are accelerators: losing them may
// hide records, never misattribute them) with accurate accounting.

// buildDamageStore runs one small campaign into a store directory.
func buildDamageStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := Run(context.Background(), smallConfig(2), WithStoreDir(dir)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// copyStore clones a store directory so each damage case starts from
// the same clean bytes.
func copyStore(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// flipByte flips one byte in the middle of the file's frame region,
// past the header so the reader's resync logic is what gets tested.
func flipByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 64 {
		t.Fatalf("%s too small to damage meaningfully (%d bytes)", path, len(data))
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// asJSONSet renders records as a multiset of JSON lines for
// subset checks.
func asJSONSet(t *testing.T, vs []string) map[string]int {
	set := make(map[string]int)
	for _, v := range vs {
		set[v]++
	}
	return set
}

func jsonLines[T any](t *testing.T, recs []T) []string {
	t.Helper()
	out := make([]string, len(recs))
	for i := range recs {
		out[i] = mustJSON(t, recs[i])
	}
	return out
}

// assertSubset fails unless got ⊆ want as multisets.
func assertSubset(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) >= len(want) {
		t.Errorf("%s: salvage returned %d records, clean store has %d — damage lost nothing?", what, len(got), len(want))
	}
	wset := asJSONSet(t, want)
	for _, g := range got {
		if wset[g] == 0 {
			t.Fatalf("%s: salvaged record not in the clean result set (misattribution): %s", what, g)
		}
		wset[g]--
	}
}

func salvageFor(s *store.Store, name string) *store.ComponentSalvage {
	for _, cs := range s.Salvage() {
		if cs.Name == name {
			return &cs
		}
	}
	return nil
}

func TestStoreSegmentDamage(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	ctx := context.Background()
	clean := buildDamageStore(t)
	cs, err := store.Open(clean)
	if err != nil {
		t.Fatal(err)
	}
	cleanFails, err := cs.Failures(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cleanTrans, err := cs.Transitions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cleanMsgs, err := cs.Messages(ctx)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		file  string
		query func(s *store.Store) ([]string, error)
		clean []string
	}{
		{store.FailuresSegment, func(s *store.Store) ([]string, error) {
			rs, err := s.Failures(ctx)
			return jsonLines(t, rs), err
		}, jsonLines(t, cleanFails)},
		{store.TransitionsSegment, func(s *store.Store) ([]string, error) {
			rs, err := s.Transitions(ctx)
			return jsonLines(t, rs), err
		}, jsonLines(t, cleanTrans)},
		{store.MessageSegmentName(0), func(s *store.Store) ([]string, error) {
			rs, err := s.Messages(ctx)
			return jsonLines(t, rs), err
		}, jsonLines(t, cleanMsgs)},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			dir := copyStore(t, clean)
			flipByte(t, filepath.Join(dir, tc.file))

			strict, err := store.Open(dir)
			if err != nil {
				t.Fatalf("strict open must succeed (damage is in a segment): %v", err)
			}
			if _, err := tc.query(strict); err == nil {
				t.Error("strict query crossed a damaged frame without failing")
			} else if !strings.Contains(err.Error(), "at offset") {
				t.Errorf("strict error %q does not pin the damaged offset", err)
			}

			sal, err := store.OpenLenient(dir)
			if err != nil {
				t.Fatalf("lenient open: %v", err)
			}
			got, err := tc.query(sal)
			if err != nil {
				t.Fatalf("lenient query: %v", err)
			}
			assertSubset(t, tc.file, got, tc.clean)
			sv := salvageFor(sal, tc.file)
			if sv == nil || sv.Report.Skipped == 0 {
				t.Errorf("salvage accounting for %s missing or empty: %+v", tc.file, sv)
			} else if sv.Report.Kept == 0 {
				t.Errorf("salvage kept nothing from %s: %s", tc.file, sv.Report)
			}
		})
	}
}

func TestStoreAdvisoryFileDamage(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	ctx := context.Background()
	clean := buildDamageStore(t)
	cs, err := store.Open(clean)
	if err != nil {
		t.Fatal(err)
	}
	cleanFails, err := cs.Failures(ctx)
	if err != nil {
		t.Fatal(err)
	}
	link := cleanFails[0].Link
	cleanByLink, err := cs.Failures(ctx, store.WithLink(link))
	if err != nil {
		t.Fatal(err)
	}

	// Damaged index and postings files: strict refuses at Open (the
	// files are loaded eagerly), lenient salvages and — because these
	// files are accelerators, not authority — still answers every
	// query identically to the clean store.
	for _, file := range []string{store.FailuresIndex, store.FailuresPostings} {
		t.Run(file, func(t *testing.T) {
			dir := copyStore(t, clean)
			// Truncating mid-entry tears the file; a torn advisory file
			// must fail strict opens.
			data, err := os.ReadFile(filepath.Join(dir, file))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, file), data[:len(data)-3], 0o644); err != nil {
				t.Fatal(err)
			}

			if _, err := store.Open(dir); err == nil {
				t.Errorf("strict open accepted a torn %s", file)
			}

			sal, err := store.OpenLenient(dir)
			if err != nil {
				t.Fatalf("lenient open: %v", err)
			}
			got, err := sal.Failures(ctx, store.WithLink(link))
			if err != nil {
				t.Fatal(err)
			}
			compareJSON(t, "per-link failures with damaged "+file, got, cleanByLink)
			all, err := sal.Failures(ctx)
			if err != nil {
				t.Fatal(err)
			}
			compareJSON(t, "failures with damaged "+file, all, cleanFails)
		})
	}

	// A deleted advisory file is not damage at all: both modes fall
	// back to scanning and answer identically.
	t.Run("missing advisory files", func(t *testing.T) {
		dir := copyStore(t, clean)
		for _, file := range []string{store.FailuresIndex, store.FailuresPostings} {
			if err := os.Remove(filepath.Join(dir, file)); err != nil {
				t.Fatal(err)
			}
		}
		strict, err := store.Open(dir)
		if err != nil {
			t.Fatalf("strict open with missing advisory files: %v", err)
		}
		got, err := strict.Failures(ctx, store.WithLink(link))
		if err != nil {
			t.Fatal(err)
		}
		compareJSON(t, "per-link failures without advisory files", got, cleanByLink)
	})
}

func TestStoreManifestDamage(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	ctx := context.Background()
	clean := buildDamageStore(t)
	cs, err := store.Open(clean)
	if err != nil {
		t.Fatal(err)
	}
	cleanFails, err := cs.Failures(ctx)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("garbage around JSON", func(t *testing.T) {
		dir := copyStore(t, clean)
		path := filepath.Join(dir, store.ManifestName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dirty := append([]byte("\x00\x01torn header residue\n"), data...)
		dirty = append(dirty, []byte("\x00tail")...)
		if err := os.WriteFile(path, dirty, 0o644); err != nil {
			t.Fatal(err)
		}

		if _, err := store.Open(dir); err == nil {
			t.Error("strict open accepted a manifest with leading garbage")
		}
		sal, err := store.OpenLenient(dir)
		if err != nil {
			t.Fatalf("lenient open: %v", err)
		}
		got, err := sal.Failures(ctx)
		if err != nil {
			t.Fatal(err)
		}
		compareJSON(t, "failures after manifest salvage", got, cleanFails)
		sv := salvageFor(sal, store.ManifestName)
		if sv == nil || sv.Report.Clean() {
			t.Error("manifest salvage unaccounted")
		}
	})

	t.Run("corruption inside JSON", func(t *testing.T) {
		// The manifest holds the record catalogs; damage inside the
		// object is fatal in both modes.
		dir := copyStore(t, clean)
		path := filepath.Join(dir, store.ManifestName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Open(dir); err == nil {
			t.Error("strict open accepted a torn manifest")
		}
		if _, err := store.OpenLenient(dir); err == nil {
			t.Error("lenient open accepted a torn manifest")
		}
	})

	t.Run("missing manifest", func(t *testing.T) {
		dir := copyStore(t, clean)
		if err := os.Remove(filepath.Join(dir, store.ManifestName)); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Open(dir); err == nil {
			t.Error("strict open accepted a store without a manifest")
		}
		if _, err := store.OpenLenient(dir); err == nil {
			t.Error("lenient open accepted a store without a manifest")
		}
		if store.IsStoreDir(dir) {
			t.Error("IsStoreDir true without a manifest")
		}
	})
}

// fetchDrill aims damage at the frames a per-link transitions query
// fetches. Every transitions.seg record has one length, so a posting's
// frame sits at its stride's index offset plus whole frames.
type fetchDrill struct {
	clean string
	recs  []store.TransitionRecord // the clean store's, in ordinal order
	idx   []capture.IndexEntry
	post  map[uint32][]uint32 // link catalog ordinal → transition ordinals
	keys  []uint32            // post's keys, ascending
	links []store.LinkEntry
	size  int64 // bytes per frame
}

func newFetchDrill(t *testing.T) *fetchDrill {
	t.Helper()
	d := &fetchDrill{clean: buildDamageStore(t)}
	s, err := store.Open(d.clean)
	if err != nil {
		t.Fatal(err)
	}
	if d.recs, err = s.Transitions(context.Background()); err != nil {
		t.Fatal(err)
	}
	d.links = s.Manifest().Links
	if d.idx, _, err = capture.LoadIndex(filepath.Join(d.clean, store.TransitionsIndex), false); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(d.clean, store.TransitionsPostings))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if d.post, _, err = store.ReadPostings(f, store.TransitionsPostings, false); err != nil {
		t.Fatal(err)
	}
	for k := range d.post {
		d.keys = append(d.keys, k)
	}
	sort.Slice(d.keys, func(i, j int) bool { return d.keys[i] < d.keys[j] })
	if len(d.idx) < 3 {
		t.Fatalf("%d transitions fill %d index strides; the drills need 3", len(d.recs), len(d.idx))
	}
	d.size = (d.idx[1].Offset - d.idx[0].Offset) / (d.idx[1].Record - d.idx[0].Record)
	return d
}

// stride returns the index entry at or before ordinal o and the first
// ordinal of the next stride.
func (d *fetchDrill) stride(o uint32) (e capture.IndexEntry, end int64) {
	i := sort.Search(len(d.idx), func(i int) bool { return d.idx[i].Record > int64(o) })
	end = int64(len(d.recs))
	if i < len(d.idx) {
		end = d.idx[i].Record
	}
	return d.idx[i-1], end
}

// offset is ordinal o's frame offset in the clean segment.
func (d *fetchDrill) offset(o uint32) int64 {
	e, _ := d.stride(o)
	return e.Offset + (int64(o)-e.Record)*d.size
}

// pick returns the first posting o that ok accepts, given its link's
// other postings, and the link's catalog ordinal.
func (d *fetchDrill) pick(t *testing.T, what string, ok func(o uint32, others []uint32) bool) (link, o uint32) {
	t.Helper()
	for _, k := range d.keys {
		for i, o := range d.post[k] {
			others := append(append([]uint32(nil), d.post[k][:i]...), d.post[k][i+1:]...)
			if ok(o, others) {
				return k, o
			}
		}
	}
	t.Fatalf("no posting is %s", what)
	return 0, 0
}

// damaged copies the clean store with edit applied to transitions.seg.
func (d *fetchDrill) damaged(t *testing.T, edit func([]byte) []byte) string {
	t.Helper()
	dir := copyStore(t, d.clean)
	path := filepath.Join(dir, store.TransitionsSegment)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// byLink is the clean per-link answer, less the records at drop.
func (d *fetchDrill) byLink(link uint32, drop ...uint32) []store.TransitionRecord {
	var out []store.TransitionRecord
	for _, o := range d.post[link] {
		if !slices.Contains(drop, o) {
			out = append(out, d.recs[o])
		}
	}
	return out
}

// query asks a store at dir for link's transitions, strict or lenient.
func (d *fetchDrill) query(t *testing.T, dir string, lenient bool, link uint32) (*store.Store, []store.TransitionRecord, error) {
	t.Helper()
	open := store.Open
	if lenient {
		open = store.OpenLenient
	}
	s, err := open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Transitions(context.Background(), store.WithLink(d.links[link].ID))
	return s, got, err
}

// scanError is what a strict whole-segment scan of dir says about its
// first damaged frame: the error the stride walk gives for that frame.
func scanError(t *testing.T, dir string) error {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Transitions(context.Background())
	if err == nil {
		t.Fatal("a strict scan read the damaged segment without failing")
	}
	return err
}

// TestStoreFetchReadsOnlyPostings: a per-link transitions query reads its
// postings' frames alone, at offsets computed from the sparse index,
// and hands the rest to the stride walk at the first frame that does
// not verify — so damage in a posting's frame is refused or salvaged
// as the walk refuses or salvages it, damage beside it is not read,
// and bytes that shift the offsets send the query down the walk.
func TestStoreFetchReadsOnlyPostings(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	d := newFetchDrill(t)

	// A flipped payload byte in the posting's own frame. Its link has no
	// other posting left in the stride, so the lenient walk's drift past
	// the skipped frame costs only the damaged record.
	t.Run("posting frame", func(t *testing.T) {
		link, o := d.pick(t, "alone in the rest of its stride", func(o uint32, others []uint32) bool {
			_, end := d.stride(o)
			for _, x := range others {
				if int64(x) > int64(o) && int64(x) <= end {
					return false
				}
			}
			return int64(o)+1 < end
		})
		off := d.offset(o)
		dir := d.damaged(t, func(b []byte) []byte { b[off+frame.Overhead+8+2] ^= 0xFF; return b })

		_, _, err := d.query(t, dir, false, link)
		want := fmt.Sprintf("record %d at offset %d: crc mismatch", o+1, off)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("strict per-link query: %v, want an error naming %q", err, want)
		}
		if scan := scanError(t, dir); err.Error() != scan.Error() {
			t.Errorf("strict per-link query says %q, a scan says %q", err, scan)
		}

		sal, got, err := d.query(t, dir, true, link)
		if err != nil {
			t.Fatal(err)
		}
		compareJSON(t, "lenient per-link transitions", got, d.byLink(link, o))
		if sv := salvageFor(sal, store.TransitionsSegment); sv == nil || sv.Report.Skipped != 1 {
			t.Errorf("the damaged frame is not accounted as one skip: %+v", sv)
		}
	})

	// A flipped payload byte in the frame before a posting, in the same
	// stride: a walk from the stride's start would read it, the fetch
	// does not.
	t.Run("neighbour frame", func(t *testing.T) {
		link, o := d.pick(t, "behind another link's frame in its stride", func(o uint32, others []uint32) bool {
			e, _ := d.stride(o)
			return int64(o) > e.Record && !slices.Contains(others, o-1)
		})
		off := d.offset(o - 1)
		dir := d.damaged(t, func(b []byte) []byte { b[off+frame.Overhead+8+2] ^= 0xFF; return b })
		scanError(t, dir) // the damage is real

		for _, lenient := range []bool{false, true} {
			s, got, err := d.query(t, dir, lenient, link)
			if err != nil {
				t.Fatalf("lenient %v: %v", lenient, err)
			}
			compareJSON(t, fmt.Sprintf("lenient %v per-link transitions", lenient), got, d.byLink(link))
			if sv := salvageFor(s, store.TransitionsSegment); sv != nil && sv.Report.Skipped != 0 {
				t.Errorf("lenient %v: a frame the query never read is accounted: %s", lenient, sv.Report)
			}
		}
	})

	// A byte deleted from the first frame of a posting's stride: every
	// later frame moves, the computed offset no longer holds a frame,
	// and the walk from the stride's start refuses the first frame
	// (strict) or skips it (lenient), as it did before any fetch read
	// frames by offset. Past the skip the lenient walk is one frame
	// ahead of its count: each later target yields its successor, kept
	// when re-verification finds it on the link.
	t.Run("shifted offsets", func(t *testing.T) {
		link, o := d.pick(t, "first of its link in its stride, not the stride's first", func(o uint32, others []uint32) bool {
			e, _ := d.stride(o)
			for _, x := range others {
				if int64(x) >= e.Record && x < o {
					return false
				}
			}
			return int64(o) > e.Record
		})
		e, _ := d.stride(o)
		cut := e.Offset + frame.Overhead + 8 + 1
		dir := d.damaged(t, func(b []byte) []byte { return append(b[:cut:cut], b[cut+1:]...) })
		_, _, err := d.query(t, dir, false, link)
		want := fmt.Sprintf("record %d at offset %d: crc mismatch", e.Record+1, e.Offset)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("strict per-link query: %v, want an error naming %q", err, want)
		}
		if scan := scanError(t, dir); err.Error() != scan.Error() {
			t.Errorf("strict per-link query says %q, a scan says %q", err, scan)
		}

		sal, got, err := d.query(t, dir, true, link)
		if err != nil {
			t.Fatal(err)
		}
		var walked []store.TransitionRecord
		for _, x := range d.post[link] {
			switch {
			case x < o:
				walked = append(walked, d.recs[x])
			case int(x)+1 < len(d.recs) && d.recs[x+1].Link == d.links[link].ID:
				walked = append(walked, d.recs[x+1])
			}
		}
		compareJSON(t, "lenient per-link transitions", got, walked)
		if sv := salvageFor(sal, store.TransitionsSegment); sv == nil || sv.Report.Skipped == 0 {
			t.Errorf("the damaged frame is not accounted: %+v", sv)
		}
	})
}

// TestStoreWindowQueryWarmBytes: the warm one-day, one-link
// failures+transitions query of TestStoreWindowQueryWarmAllocBudget
// reads its postings' frames and allocates no reader window: 4,640
// bytes measured, where reading each posting's whole index stride took
// 44,032.
func TestStoreWindowQueryWarmBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("spills and analyzes a month-long campaign")
	}
	op := benchStoreWindowQuery(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 8<<10 {
		t.Errorf("a warm one-day, one-link failures+transitions query allocates %d bytes, ceiling is %d", per, 8<<10)
	}
}
