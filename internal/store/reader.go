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
	failPost map[uint32][]uint32
	tranPost map[uint32][]uint32
	msgPost  []map[uint32][]uint32

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
	s.msgPost = make([]map[uint32][]uint32, len(s.man.Messages))
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
// nil, a damaged one fails strictly or salvages leniently.
func (s *Store) loadPostings(name string) (map[uint32][]uint32, error) {
	post, rep, err := loadPostings(filepath.Join(s.dir, name), s.lenient)
	if errors.Is(err, ErrNoPostings) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	s.addSalvage(name, rep)
	return post, nil
}

// cancelStride bounds how many records scan between context checks —
// the same cadence as the capture replay path.
const cancelStride = 1024

// errStopScan ends a scan early (limit reached).
var errStopScan = errors.New("store: stop scan")

// scan streams a segment's records through fn. With a window it seeks
// through the sparse index to q.seekMs(slackMs) and stops at the first
// record stamped after the window's end. fn returns errStopScan to end
// the scan early. Salvage accounting for the pass is merged into the
// component's cumulative report.
func (s *Store) scan(ctx context.Context, name string, idx []capture.IndexEntry, q *Query, slackMs int64, fn func(tsMs int64, rec []byte) error) error {
	path := filepath.Join(s.dir, name)
	var e capture.IndexEntry // zero: from the first record
	var span int64           // zero: the bulk window
	toMs := q.to.UnixMilli()
	if q.window {
		e, _ = capture.Locate(idx, q.seekMs(slackMs))
		span = scanSpan(path, idx, e, toMs)
	}
	sr, err := capture.OpenSegmentAt(path, e, span, s.lenient)
	if err != nil {
		return err
	}
	defer func() {
		s.addSalvage(name, sr.Report())
		sr.Close()
	}()
	for n := 0; ; n++ {
		if n%cancelStride == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
		}
		tsMs, rec, nerr := sr.Next()
		if errors.Is(nerr, io.EOF) {
			return nil
		}
		if nerr != nil {
			return nerr
		}
		if q.window && tsMs > toMs {
			return nil
		}
		if ferr := fn(tsMs, rec); ferr != nil {
			if errors.Is(ferr, errStopScan) {
				return nil
			}
			return ferr
		}
	}
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

// hop returns the latest index entry at or before the target record
// ordinal and the bytes from it to the next entry — all a fetch inside
// that stride can read. Both are zero (the first record, the default
// window) when no entry precedes the target, and the span is zero at
// the index's last entry, whose stride ends with the file.
func hop(idx []capture.IndexEntry, target int64) (e capture.IndexEntry, span int64) {
	i := sort.Search(len(idx), func(i int) bool { return idx[i].Record > target })
	if i == 0 {
		return capture.IndexEntry{}, 0
	}
	if i < len(idx) {
		span = idx[i].Offset - idx[i-1].Offset
	}
	return idx[i-1], span
}

// fetchOrdinals streams the records at the given (ascending) written
// ordinals through fn over one descriptor. In a segment whose records
// are all recLen bytes long (failures and transitions; 0 for a message
// segment) it reads each posting's frame alone, at the offset its
// stride's index entry and its ordinal give (RecordAt), and nothing
// else. The first frame that does not verify hands its ordinal and
// every later one to the stride walk a message segment always takes:
// read from the latest index entry at or before the next ordinal,
// re-seeked whenever the next lies in a later stride, so a damaged
// stride is refused or salvaged frame by frame. On a clean segment the
// ordinals map exactly to records; on a damaged lenient segment the
// walk's mapping can drift past the damage, so callers always
// re-verify their predicate against the decoded record — postings are
// an accelerator, never an authority.
func (s *Store) fetchOrdinals(ctx context.Context, name string, idx []capture.IndexEntry, ords []uint32, recLen int, fn func(tsMs int64, rec []byte) error) error {
	if len(ords) == 0 {
		return nil
	}
	e, span := hop(idx, int64(ords[0]))
	// Before the first index entry it is the walk that checks the
	// segment's magic.
	direct := recLen > 0 && e != (capture.IndexEntry{})
	if direct {
		span = 0 // no window until the walk needs one
	}
	sr, err := capture.OpenSegmentAt(filepath.Join(s.dir, name), e, span, s.lenient)
	if err != nil {
		return err
	}
	defer func() {
		s.addSalvage(name, sr.Report())
		sr.Close()
	}()
	if direct {
		i := 0
		for ; i < len(ords); i++ {
			if i%cancelStride == 0 {
				if cerr := ctx.Err(); cerr != nil {
					return cerr
				}
			}
			e, _ = hop(idx, int64(ords[i]))
			tsMs, rec, ok := sr.RecordAt(e, int64(ords[i]), recLen)
			if !ok {
				break
			}
			if ferr := fn(tsMs, rec); ferr != nil {
				if errors.Is(ferr, errStopScan) {
					return nil
				}
				return ferr
			}
		}
		if i == len(ords) {
			return nil
		}
		ords = ords[i:]
		e, span = hop(idx, int64(ords[0]))
		if err := sr.Seek(e, span); err != nil {
			return err
		}
	}
	// cur is the written ordinal the next Next() call should return
	// (exact on clean segments; see the doc comment for damaged ones).
	cur := e.Record
	n := 0
	for _, o := range ords {
		target := int64(o)
		if e, span = hop(idx, target); e.Record > cur {
			if err := sr.Seek(e, span); err != nil {
				return err
			}
			cur = e.Record
		}
		for cur <= target {
			if n++; n%cancelStride == 0 {
				if cerr := ctx.Err(); cerr != nil {
					return cerr
				}
			}
			tsMs, rec, nerr := sr.Next()
			if errors.Is(nerr, io.EOF) {
				return nil
			}
			if nerr != nil {
				return nerr
			}
			cur++
			if cur-1 == target {
				if ferr := fn(tsMs, rec); ferr != nil {
					if errors.Is(ferr, errStopScan) {
						return nil
					}
					return ferr
				}
			}
		}
	}
	return nil
}
