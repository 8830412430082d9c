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
	"netfail/internal/topo"
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
		query func(s *store.Store, opts ...store.Option) ([]string, error)
		clean []string
		keys  []store.Option // a keyed query on each of the first three keys
	}{
		{store.FailuresSegment, func(s *store.Store, opts ...store.Option) ([]string, error) {
			rs, err := s.Failures(ctx, opts...)
			return jsonLines(t, rs), err
		}, jsonLines(t, cleanFails), []store.Option{
			store.WithLink(cleanFails[0].Link), store.WithLink(cleanFails[1].Link), store.WithLink(cleanFails[2].Link)}},
		{store.TransitionsSegment, func(s *store.Store, opts ...store.Option) ([]string, error) {
			rs, err := s.Transitions(ctx, opts...)
			return jsonLines(t, rs), err
		}, jsonLines(t, cleanTrans), []store.Option{
			store.WithLink(cleanTrans[0].Link), store.WithLink(cleanTrans[1].Link), store.WithLink(cleanTrans[2].Link)}},
		{store.MessageSegmentName(0), func(s *store.Store, opts ...store.Option) ([]string, error) {
			rs, err := s.Messages(ctx, opts...)
			return jsonLines(t, rs), err
		}, jsonLines(t, cleanMsgs), []store.Option{
			store.WithHost(cleanMsgs[0].Host), store.WithHost(cleanMsgs[1].Host), store.WithHost(cleanMsgs[2].Host)}},
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
			for _, key := range tc.keys {
				sameAsScan(t, dir, func(s *store.Store) ([]string, error) { return tc.query(s, key) })
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
			// Every link's answer, the one whose postings frame the tear
			// took included: a lost key scans, it does not answer empty.
			for _, l := range cs.Manifest().Links {
				got, err := sal.Failures(ctx, store.WithLink(l.ID))
				if err != nil {
					t.Fatal(err)
				}
				want, err := cs.Failures(ctx, store.WithLink(l.ID))
				if err != nil {
					t.Fatal(err)
				}
				compareJSON(t, "failures on "+string(l.ID)+" with damaged "+file, got, want)
			}
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

// withoutPostings copies the store at dir with its postings files
// removed: the scanning store every keyed answer is held to.
func withoutPostings(t *testing.T, dir string) string {
	t.Helper()
	bare := copyStore(t, dir)
	entries, err := os.ReadDir(bare)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".pst") {
			if err := os.Remove(filepath.Join(bare, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	return bare
}

// sameAsScan holds a keyed query on the store at dir to the same query
// on its copy without postings, which scans: leniently the answers are
// equal record for record and in order, and strictly the query fails,
// when it does, with the scan's error. It returns the strict error.
func sameAsScan(t *testing.T, dir string, ask func(s *store.Store) ([]string, error)) error {
	t.Helper()
	bare := withoutPostings(t, dir)
	answer := func(dir string, open func(string) (*store.Store, error)) ([]string, error) {
		t.Helper()
		s, err := open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return ask(s)
	}
	got, err := answer(dir, store.OpenLenient)
	if err != nil {
		t.Fatalf("lenient keyed query: %v", err)
	}
	want, err := answer(bare, store.OpenLenient)
	if err != nil {
		t.Fatalf("lenient scan: %v", err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("lenient keyed query answers %d records, the scan %d", len(got), len(want))
		compareJSON(t, "lenient keyed query against the scan", got, want)
	}
	_, strictErr := answer(dir, store.Open)
	if strictErr != nil {
		if _, scanErr := answer(bare, store.Open); scanErr == nil || strings.ReplaceAll(scanErr.Error(), bare, dir) != strictErr.Error() {
			t.Errorf("strict keyed query says %q, the scan %v", strictErr, scanErr)
		}
	}
	return strictErr
}

// fetchDrill aims damage at the frames a keyed query fetches: one
// link's transitions in transitions.seg, or one host's lines in a
// message segment.
type fetchDrill struct {
	clean string
	seg   string
	recs  []string // the clean segment's records as JSON, in frame order
	keys  []string // each record's link or host
	offs  []int64  // each record's frame offset
	idx   []capture.IndexEntry
	post  map[uint32][]int64 // key catalog ordinal → frame offsets
	ks    []uint32           // post's keys, ascending
	names []string           // the key catalog
	ask   func(s *store.Store, key string) ([]string, error)
}

// newFetchDrill reads the clean store's segment seg: transitions.seg
// or the first message segment.
func newFetchDrill(t *testing.T, clean, seg string) *fetchDrill {
	t.Helper()
	ctx := context.Background()
	d := &fetchDrill{clean: clean, seg: seg}
	s, err := store.Open(d.clean)
	if err != nil {
		t.Fatal(err)
	}
	pst, idx := store.TransitionsPostings, store.TransitionsIndex
	if seg == store.TransitionsSegment {
		recs, err := s.Transitions(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			d.recs, d.keys = append(d.recs, mustJSON(t, r)), append(d.keys, string(r.Link))
		}
		for _, l := range s.Manifest().Links {
			d.names = append(d.names, string(l.ID))
		}
		d.ask = func(s *store.Store, key string) ([]string, error) {
			rs, err := s.Transitions(ctx, store.WithLink(topo.LinkID(key)))
			return jsonLines(t, rs), err
		}
	} else {
		pst, idx = store.MessagePostingsName(0), store.MessageIndexName(0)
		recs, err := s.Messages(ctx, store.WithLimit(int(s.Manifest().Messages[0].Records)))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			d.recs, d.keys = append(d.recs, mustJSON(t, r)), append(d.keys, r.Host)
		}
		d.names = s.Manifest().Hosts
		// One segment's lines: the store's only segment in these drills.
		d.ask = func(s *store.Store, key string) ([]string, error) {
			rs, err := s.Messages(ctx, store.WithHost(key))
			return jsonLines(t, rs), err
		}
	}
	if n := len(s.Manifest().Messages); seg != store.TransitionsSegment && n != 1 {
		t.Fatalf("the store has %d message segments; the drill reads one", n)
	}
	sr, err := capture.OpenSegment(filepath.Join(d.clean, seg))
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	for {
		if _, _, err := sr.Next(); err != nil {
			break
		}
		d.offs = append(d.offs, sr.Offset())
	}
	if len(d.offs) != len(d.recs) {
		t.Fatalf("%s holds %d frames, the store answers %d records", seg, len(d.offs), len(d.recs))
	}
	if d.idx, _, err = capture.LoadIndex(filepath.Join(d.clean, idx), false); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(d.clean, pst))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if d.post, _, err = store.ReadPostings(f, pst, false); err != nil {
		t.Fatal(err)
	}
	for k := range d.post {
		d.ks = append(d.ks, k)
	}
	slices.Sort(d.ks)
	if len(d.idx) < 3 {
		t.Fatalf("%d records fill %d index strides of %s; the drills need 3", len(d.recs), len(d.idx), seg)
	}
	return d
}

// ord is the ordinal of the record whose frame starts at off.
func (d *fetchDrill) ord(off int64) int {
	i, ok := slices.BinarySearch(d.offs, off)
	if !ok {
		panic(fmt.Sprintf("no frame starts at offset %d", off))
	}
	return i
}

// stride returns the index entry at or before ordinal o and the first
// ordinal of the next stride.
func (d *fetchDrill) stride(o int) (e capture.IndexEntry, end int) {
	i := sort.Search(len(d.idx), func(i int) bool { return d.idx[i].Record > int64(o) })
	end = len(d.recs)
	if i < len(d.idx) {
		end = int(d.idx[i].Record)
	}
	return d.idx[i-1], end
}

// pick returns the first posting's ordinal o that ok accepts, given
// the ordinals of its key's other postings, and the key.
func (d *fetchDrill) pick(t *testing.T, what string, ok func(o int, others []int) bool) (key string, o int) {
	t.Helper()
	for _, k := range d.ks {
		var ords []int
		for _, off := range d.post[k] {
			ords = append(ords, d.ord(off))
		}
		for i, o := range ords {
			if ok(o, slices.Delete(slices.Clone(ords), i, i+1)) {
				return d.names[k], o
			}
		}
	}
	t.Fatalf("no posting is %s", what)
	return "", 0
}

// damaged copies the clean store with edit applied to the segment.
func (d *fetchDrill) damaged(t *testing.T, edit func([]byte) []byte) string {
	t.Helper()
	dir := copyStore(t, d.clean)
	path := filepath.Join(dir, d.seg)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// byKey is the clean keyed answer, less the record at ordinal drop
// (none when negative).
func (d *fetchDrill) byKey(key string, drop int) []string {
	var out []string
	for i, k := range d.keys {
		if k == key && i != drop {
			out = append(out, d.recs[i])
		}
	}
	return out
}

// query asks a store at dir for key's records, strict or lenient.
func (d *fetchDrill) query(t *testing.T, dir string, lenient bool, key string) (*store.Store, []string, error) {
	t.Helper()
	open := store.Open
	if lenient {
		open = store.OpenLenient
	}
	s, err := open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.ask(s, key)
	return s, got, err
}

// flip flips a payload byte of the frame at off, past its timestamp.
func flipAt(off int64) func([]byte) []byte {
	return func(b []byte) []byte { b[off+frame.Overhead+8+2] ^= 0xFF; return b }
}

// TestStoreFetchReadsOnlyPostings: a keyed query — a link's
// transitions, a host's lines — reads its postings' frames alone, at
// the offsets the postings name, and scans from the first frame that
// does not verify: so damage in a posting's frame is refused or
// salvaged as a scan refuses or salvages it, damage beside it is not
// read, and bytes that shift the offsets send the query to the scan.
// In every drill the lenient answer is the answer of the same store
// without postings, and a strict failure is that scan's error.
func TestStoreFetchReadsOnlyPostings(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	clean := buildDamageStore(t)
	drills := []*fetchDrill{newFetchDrill(t, clean, store.TransitionsSegment), newFetchDrill(t, clean, store.MessageSegmentName(0))}

	// A flipped payload byte in a posting's own frame, with more of its
	// key's postings after it: the scan that takes over skips the
	// damaged record and keeps every later one.
	t.Run("posting frame", func(t *testing.T) {
		for _, d := range drills {
			key, o := d.pick(t, "followed by another of its key", func(o int, others []int) bool {
				return slices.ContainsFunc(others, func(x int) bool { return x > o })
			})
			dir := d.damaged(t, flipAt(d.offs[o]))
			err := sameAsScan(t, dir, func(s *store.Store) ([]string, error) { return d.ask(s, key) })
			want := fmt.Sprintf("record %d at offset %d: crc mismatch", o+1, d.offs[o])
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: strict keyed query: %v, want an error naming %q", d.seg, err, want)
			}
			sal, got, err := d.query(t, dir, true, key)
			if err != nil {
				t.Fatal(err)
			}
			compareJSON(t, d.seg+": lenient keyed answer", got, d.byKey(key, o))
			if sv := salvageFor(sal, d.seg); sv == nil || sv.Report.Skipped != 1 {
				t.Errorf("%s: the damaged frame is not accounted as one skip: %+v", d.seg, sv)
			}
		}
	})

	// A flipped payload byte in the frame before a posting, in the same
	// stride: a walk from the stride's start would read it, the fetch
	// does not.
	t.Run("neighbour frame", func(t *testing.T) {
		for _, d := range drills {
			key, o := d.pick(t, "behind another key's frame in its stride", func(o int, others []int) bool {
				e, _ := d.stride(o)
				return int64(o) > e.Record && !slices.Contains(others, o-1)
			})
			dir := d.damaged(t, flipAt(d.offs[o-1]))
			if err := sameAsScan(t, dir, func(s *store.Store) ([]string, error) { return d.ask(s, key) }); err != nil {
				t.Errorf("%s: strict keyed query read a frame it does not post: %v", d.seg, err)
			}
			for _, lenient := range []bool{false, true} {
				s, got, err := d.query(t, dir, lenient, key)
				if err != nil {
					t.Fatalf("%s: lenient %v: %v", d.seg, lenient, err)
				}
				compareJSON(t, fmt.Sprintf("%s: lenient %v keyed answer", d.seg, lenient), got, d.byKey(key, -1))
				if sv := salvageFor(s, d.seg); sv != nil && sv.Report.Skipped != 0 {
					t.Errorf("%s: lenient %v: a frame the query never read is accounted: %s", d.seg, lenient, sv.Report)
				}
			}
		}
	})

	// A byte deleted from the first frame of a posting's stride: every
	// later frame moves, the posting's offset no longer holds a frame,
	// and the scan from the stride's start refuses the first frame
	// (strict) or skips it and keeps every record after it (lenient).
	t.Run("shifted offsets", func(t *testing.T) {
		for _, d := range drills {
			key, o := d.pick(t, "first of its key in its stride, not the stride's first", func(o int, others []int) bool {
				e, _ := d.stride(o)
				return int64(o) > e.Record && !slices.ContainsFunc(others, func(x int) bool { return int64(x) >= e.Record && x < o })
			})
			e, _ := d.stride(o)
			cut := e.Offset + frame.Overhead + 8 + 1
			dir := d.damaged(t, func(b []byte) []byte { return append(b[:cut:cut], b[cut+1:]...) })
			err := sameAsScan(t, dir, func(s *store.Store) ([]string, error) { return d.ask(s, key) })
			want := fmt.Sprintf("record %d at offset %d: crc mismatch", e.Record+1, e.Offset)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: strict keyed query: %v, want an error naming %q", d.seg, err, want)
			}
			sal, got, err := d.query(t, dir, true, key)
			if err != nil {
				t.Fatal(err)
			}
			compareJSON(t, d.seg+": lenient keyed answer", got, d.byKey(key, -1))
			if sv := salvageFor(sal, d.seg); sv == nil || sv.Report.Skipped == 0 {
				t.Errorf("%s: the damaged frame is not accounted: %+v", d.seg, sv)
			}
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
