package store

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"netfail/internal/capture"
	"netfail/internal/frame"
	"netfail/internal/salvage"
	"netfail/internal/topo"
)

// ComponentSalvage names one store component's salvage accounting,
// mirroring the capture pipeline's CaptureSalvage convention.
type ComponentSalvage struct {
	// Name identifies the component, e.g. "failures.seg".
	Name string
	// Report accounts the records kept and skipped.
	Report *salvage.Report
}

// Store is an opened store directory. The manifest, sparse indexes,
// and postings are loaded once at Open; segment files are opened per
// query, so a Store is safe for concurrent queries — the HTTP layer
// serves many at once from one handle. A lenient store accumulates
// salvage accounting across queries (Salvage); a strict store fails
// any read that touches a damaged frame with a record- and
// offset-accurate error.
type Store struct {
	dir     string
	lenient bool
	man     *Manifest

	linkOrd map[topo.LinkID]uint32
	hostOrd map[string]uint32

	failIdx  []capture.IndexEntry
	tranIdx  []capture.IndexEntry
	msgIdx   [][]capture.IndexEntry
	failPost map[uint32][]int64
	tranPost map[uint32][]int64
	msgPost  []map[uint32][]int64

	mu        sync.Mutex
	salv      map[string]*salvage.Report
	salvNames []string
}

// Open opens a store directory strictly: a damaged manifest, index,
// or postings file fails immediately, and any query touching a
// damaged segment frame fails with a record- and offset-accurate
// error. Missing index or postings files are fine in both modes —
// they are advisory, and queries fall back to scanning.
func Open(dir string) (*Store, error) {
	return open(dir, false)
}

// OpenLenient opens a store directory in salvage mode: damaged
// indexes, postings, and segment regions are skipped and accounted —
// inspect Salvage after querying. The manifest's garbage tolerance
// follows the capture convention (junk around the JSON object is
// skipped; corruption inside it stays fatal, since the catalogs it
// holds name every record's link and host).
func OpenLenient(dir string) (*Store, error) {
	return open(dir, true)
}

func open(dir string, lenient bool) (*Store, error) {
	s := &Store{
		dir:     dir,
		lenient: lenient,
		salv:    make(map[string]*salvage.Report),
	}
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	if lenient {
		obj, rep, ok := salvage.JSONObject(raw)
		if !ok {
			return nil, errors.New("store: manifest: no complete JSON object found")
		}
		s.addSalvage(ManifestName, rep)
		raw = obj
	}
	if s.man, err = ReadManifest(bytes.NewReader(raw)); err != nil {
		return nil, err
	}

	s.linkOrd = make(map[topo.LinkID]uint32, len(s.man.Links))
	for i, l := range s.man.Links {
		s.linkOrd[l.ID] = uint32(i)
	}
	s.hostOrd = make(map[string]uint32, len(s.man.Hosts))
	for i, h := range s.man.Hosts {
		s.hostOrd[h] = uint32(i)
	}

	if s.failIdx, err = s.loadIndex(FailuresIndex); err != nil {
		return nil, err
	}
	if s.tranIdx, err = s.loadIndex(TransitionsIndex); err != nil {
		return nil, err
	}
	if s.failPost, err = s.loadPostings(FailuresPostings); err != nil {
		return nil, err
	}
	if s.tranPost, err = s.loadPostings(TransitionsPostings); err != nil {
		return nil, err
	}
	s.msgIdx = make([][]capture.IndexEntry, len(s.man.Messages))
	s.msgPost = make([]map[uint32][]int64, len(s.man.Messages))
	for i := range s.man.Messages {
		if s.msgIdx[i], err = s.loadIndex(MessageIndexName(i)); err != nil {
			return nil, err
		}
		if s.msgPost[i], err = s.loadPostings(MessagePostingsName(i)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Manifest returns the loaded manifest. Callers must not mutate it.
func (s *Store) Manifest() *Manifest { return s.man }

// Lenient reports whether the store was opened in salvage mode.
func (s *Store) Lenient() bool { return s.lenient }

// Salvage returns the accumulated salvage accounting, one entry per
// store component touched so far, in first-touched order. Lenient
// reads merge their per-pass reports here; a strict store's listing
// stays empty.
func (s *Store) Salvage() []ComponentSalvage {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ComponentSalvage, 0, len(s.salvNames))
	for _, name := range s.salvNames {
		cp := *s.salv[name]
		if s.salv[name].Reasons != nil {
			cp.Reasons = make(map[string]int, len(s.salv[name].Reasons))
			for k, v := range s.salv[name].Reasons {
				cp.Reasons[k] = v
			}
		}
		out = append(out, ComponentSalvage{Name: name, Report: &cp})
	}
	return out
}

// addSalvage merges rep into the named component's cumulative report;
// a strict store keeps no listing.
func (s *Store) addSalvage(name string, rep *salvage.Report) {
	if rep == nil || !s.lenient {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.salv[name]
	if !ok {
		cur = &salvage.Report{}
		s.salv[name] = cur
		s.salvNames = append(s.salvNames, name)
	}
	cur.Merge(rep)
}

// loadIndex loads one advisory sparse index: a missing file is nil, a
// damaged one fails strictly or salvages leniently.
func (s *Store) loadIndex(name string) ([]capture.IndexEntry, error) {
	idx, rep, err := capture.LoadIndex(filepath.Join(s.dir, name), s.lenient)
	if errors.Is(err, capture.ErrNoIndex) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	s.addSalvage(name, rep)
	return idx, nil
}

// loadPostings loads one advisory postings file: a missing file is
// nil, a damaged one fails strictly, and leniently is accounted and
// read as missing, since a key whose frame was lost would otherwise
// answer with nothing instead of a scan.
func (s *Store) loadPostings(name string) (map[uint32][]int64, error) {
	post, rep, err := loadPostings(filepath.Join(s.dir, name), s.lenient)
	if errors.Is(err, ErrNoPostings) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	s.addSalvage(name, rep)
	if !rep.Clean() {
		return nil, nil
	}
	return post, nil
}

// cancelStride bounds how many records a read takes between context
// checks — the same cadence as the capture replay path.
const cancelStride = 1024

// errStopScan ends a read early (limit reached).
var errStopScan = errors.New("store: stop scan")

// read streams through fn the records of segment name a query q can
// match, in segment order; fn re-verifies q against each record, and
// returns errStopScan to end the read early. It is every store read.
//
// With postings — post, the query key's frame offsets, clipped to the
// window (nil for a query the postings do not serve) — it reads each
// posting's frame alone (RecordAt; recLen is the record's length, or a
// message line's usual bound) and nothing else. From the first posting
// whose frame does not verify, and without postings from the start, it
// scans: from the sparse-index entry at or before the end of the last
// frame fetched, yielding only the frames past that end, or, if none
// was fetched, from q.seekMs(slackMs) — up to the first record stamped
// after the window. So a strict store refuses a damaged frame with the
// scan's record- and offset-accurate error, a lenient one answers
// exactly what the scan salvages, and no record is read twice. Salvage
// accounting for the pass is merged into the component's report.
func (s *Store) read(ctx context.Context, name string, idx []capture.IndexEntry, post []int64, recLen int, q *Query, slackMs int64, fn func(tsMs int64, rec []byte) error) error {
	path := filepath.Join(s.dir, name)
	sr, err := capture.OpenSegmentAt(path, capture.IndexEntry{}, 0, s.lenient)
	if err != nil {
		return err
	}
	defer func() {
		s.addSalvage(name, sr.Report())
		sr.Close()
	}()
	end := int64(-1) // past the last frame fetched
	for i, off := range post {
		if i%cancelStride == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
		}
		if off < end { // inside the frame just fetched: no frame of its own
			break
		}
		tsMs, rec, next, ok := sr.RecordAt(off, recLen)
		if !ok {
			break
		}
		end = next
		if err := fn(tsMs, rec); err != nil {
			return ignoreStop(err)
		}
		if i == len(post)-1 {
			return nil
		}
	}

	var e capture.IndexEntry // zero: from the first record
	if end >= 0 {
		if i := sort.Search(len(idx), func(i int) bool { return idx[i].Offset > end }); i > 0 {
			e = idx[i-1]
		}
	} else if q.window {
		e, _ = capture.Locate(idx, q.seekMs(slackMs))
	}
	toMs := q.to.UnixMilli()
	var span int64 // zero: the bulk window
	if q.window {
		span = scanSpan(path, idx, e, toMs)
	}
	if err := sr.Seek(e, span); err != nil {
		return err
	}
	for n := 0; ; n++ {
		if n%cancelStride == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
		}
		tsMs, rec, err := sr.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if q.window && tsMs > toMs {
			return nil
		}
		if sr.Offset() < end {
			continue
		}
		if err := fn(tsMs, rec); err != nil {
			return ignoreStop(err)
		}
	}
}

// ignoreStop is err, less the errStopScan that ends a read early.
func ignoreStop(err error) error {
	if errors.Is(err, errStopScan) {
		return nil
	}
	return err
}

// scanSpan is what a window scan from index entry e reads, when that
// is less than the bulk window, and otherwise zero, the bulk window:
// the bytes through the stride of the first entry stamped after toMs,
// whose first record stops the scan if none before it does, or to the
// end of the segment. Ending at that entry instead would cost a second
// read of a whole span for the one record that stops the scan.
func scanSpan(path string, idx []capture.IndexEntry, e capture.IndexEntry, toMs int64) int64 {
	end := int64(-1)
	if j := sort.Search(len(idx), func(j int) bool { return idx[j].TsMs > toMs }); j+1 < len(idx) {
		end = idx[j+1].Offset
	} else if fi, err := os.Stat(path); err == nil {
		end = fi.Size()
	}
	if span := end - e.Offset; span > 0 && span < frame.Window {
		return span
	}
	return 0
}
