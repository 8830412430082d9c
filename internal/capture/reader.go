package capture

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"

	"netfail/internal/frame"
	"netfail/internal/salvage"
)

// SegmentReader streams one segment's records. Next returns each
// record's timestamp and bytes; the byte slice is a view into the
// frame reader's window, valid only until the next call — consumers
// (the syslog Tokenizer, the LSP decoder) copy or intern everything
// they retain, which is what keeps the read path zero-copy.
//
// A strict reader aborts on the first damaged frame with a record- and
// offset-accurate error; a lenient one skips damaged regions and
// accounts every skip in its salvage report (see internal/frame).
type SegmentReader struct {
	fr  *frame.Reader
	f   *os.File // nil when the reader does not own a file
	win *window  // pooled; nil when the reader does not own a file

	// A Seek takes effect at the next Next, so a reader only ever
	// asked for RecordAt reads nothing else and takes no stream window.
	seeking bool
	at      IndexEntry
	span    int64
}

// A window is a file-backed reader's buffers: the frame stream's and
// RecordAt's. Readers return theirs to the pool at Close, so a store
// serving queries or a driver replaying shards allocates windows once,
// not per read.
type window struct{ stream, frame []byte }

var windows = sync.Pool{New: func() any { return new(window) }}

// newSegmentReader wraps r, positioned at the segment magic, as a
// frame stream. name labels errors (typically the file path).
func newSegmentReader(r io.Reader, name string, lenient bool) (*SegmentReader, error) {
	sr := &SegmentReader{fr: frame.NewReader(r, name, tsLen, lenient, nil)}
	if err := sr.fr.Header(segHeader); err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	return sr, nil
}

// OpenSegment opens path as a strict frame stream from its first
// record: OpenSegmentAt(path, IndexEntry{}, 0, false).
func OpenSegment(path string) (*SegmentReader, error) {
	return OpenSegmentAt(path, IndexEntry{}, 0, false)
}

// OpenSegmentAt opens path and positions the reader with
// Seek(e, span). It reads nothing until the first Next.
func OpenSegmentAt(path string, e IndexEntry, span int64, lenient bool) (*SegmentReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	sr := &SegmentReader{fr: frame.NewReader(f, path, tsLen, lenient, nil), f: f, win: windows.Get().(*window)}
	if sr.win.stream != nil {
		sr.fr.Buffer(sr.win.stream)
	}
	if err := sr.Seek(e, span); err != nil {
		sr.Close()
		return nil, err
	}
	return sr, nil
}

// Seek positions a file-backed reader at a frame boundary taken from
// the segment's sparse index: the next Next reads from that record on.
// The zero IndexEntry is the start of the segment, whose magic that
// Next verifies first. Lenient, an entry pointing into a damaged
// region simply resynchronizes on the next intact frame. span is the
// distance to the next index entry when the caller will not read past
// it, and zero for a bulk read, which keeps the default window.
func (sr *SegmentReader) Seek(e IndexEntry, span int64) error {
	if e != (IndexEntry{}) && e.Offset < int64(len(segHeader)) {
		return fmt.Errorf("capture: %s: seek offset %d inside header", sr.f.Name(), e.Offset)
	}
	sr.seeking, sr.at, sr.span = true, e, span
	return nil
}

// reposition carries out the pending Seek.
func (sr *SegmentReader) reposition() error {
	sr.seeking = false
	if sr.win.stream == nil {
		sr.win.stream = make([]byte, frame.Window)
		sr.fr.Buffer(sr.win.stream)
	}
	if _, err := sr.f.Seek(sr.at.Offset, io.SeekStart); err != nil {
		return fmt.Errorf("capture: %s: %w", sr.f.Name(), err)
	}
	sr.fr.StartAt(sr.at.Offset, sr.at.Record, int(sr.span))
	if sr.at == (IndexEntry{}) {
		if err := sr.fr.Header(segHeader); err != nil {
			return fmt.Errorf("capture: %w", err)
		}
	}
	return nil
}

// RecordAt reads the record whose frame starts at byte offset off —
// where the segment's writer appended it — from a file-backed reader,
// leaving the Next stream where it was. It reads the frame header and
// recLen record bytes first, and the rest of a longer frame in one
// more read. It returns the record and end, the offset past its frame,
// when frame.Check passes the frame, kept in the salvage report; ok is
// false for anything else — a damaged frame, an offset the damage has
// shifted off a frame, the end of the file — and the caller scans
// instead, which refuses or salvages what is there.
func (sr *SegmentReader) RecordAt(off int64, recLen int) (tsMs int64, rec []byte, end int64, ok bool) {
	b, err := sr.readAt(sr.win.frame[:0], off, frame.Overhead+tsLen+recLen)
	n, reason := frame.Check(b, tsLen)
	if reason != "" && n > 0 && err == nil {
		// A longer frame, or a damaged length: read on only as far as
		// the file goes, so a bogus length costs no memory.
		if fi, serr := sr.f.Stat(); serr == nil && off+int64(frame.Overhead+n) <= fi.Size() {
			b, _ = sr.readAt(b, off, frame.Overhead+n)
			n, reason = frame.Check(b, tsLen)
		}
	}
	sr.win.frame = b
	if reason != "" {
		return 0, nil, 0, false
	}
	sr.fr.Report().Kept++
	return int64(binary.LittleEndian.Uint64(b[frame.Overhead:])), b[frame.Overhead+tsLen : frame.Overhead+n], off + int64(frame.Overhead+n), true
}

// readAt extends b, which holds the first len(b) bytes at off, to the
// first size bytes at off, or as many as the file has; err is io.EOF
// when it has fewer.
func (sr *SegmentReader) readAt(b []byte, off int64, size int) ([]byte, error) {
	have := len(b)
	b = slices.Grow(b, size-have)[:size]
	n, err := sr.f.ReadAt(b[have:], off+int64(have))
	return b[:have+n], err
}

// Report returns the reader's salvage accounting: records kept, and
// for a lenient reader the damaged regions skipped.
func (sr *SegmentReader) Report() *salvage.Report { return sr.fr.Report() }

// Offset returns the byte offset of the frame Next last returned.
func (sr *SegmentReader) Offset() int64 { return sr.fr.Offset() }

// Close closes the underlying file when the reader owns one, and
// returns its windows to the pool.
func (sr *SegmentReader) Close() error {
	if sr.f == nil {
		return nil
	}
	if sr.win != nil {
		if cap(sr.win.frame) > frame.Window {
			sr.win.frame = nil // a rare long frame is not worth keeping
		}
		windows.Put(sr.win)
		sr.win = nil
	}
	return sr.f.Close()
}

// Next returns the next record. At the end of the segment it returns
// io.EOF. The returned slice aliases the reader's window.
func (sr *SegmentReader) Next() (tsMs int64, rec []byte, err error) {
	if sr.seeking {
		if err := sr.reposition(); err != nil {
			return 0, nil, err
		}
	}
	payload, err := sr.fr.Next()
	if err == io.EOF {
		return 0, nil, io.EOF
	}
	if err != nil {
		return 0, nil, fmt.Errorf("capture: %w", err)
	}
	return int64(binary.LittleEndian.Uint64(payload)), payload[tsLen:], nil
}

// IndexEntry is one sparse-index record: the timestamp, byte offset,
// and ordinal of a frame in the companion segment.
type IndexEntry struct {
	TsMs   int64
	Offset int64
	Record int64
}

// ReadIndex parses a sparse index. Strict, any damage is an error;
// lenient, a torn trailing entry (the crash-mid-write case) or a
// damaged header is accounted and skipped, and entries after the first
// damage are dropped — a sparse index is advisory, and the segment
// remains fully readable without it.
func ReadIndex(r io.Reader, lenient bool) ([]IndexEntry, *salvage.Report, error) {
	rep := &salvage.Report{}
	br := bufio.NewReader(r)
	hdr := make([]byte, len(idxHeader))
	if _, err := io.ReadFull(br, hdr); err != nil || string(hdr) != idxHeader {
		if !lenient {
			return nil, nil, fmt.Errorf("capture: index: bad header")
		}
		rep.Skip(1, "bad index header")
		return nil, rep, nil
	}
	var out []IndexEntry
	var raw [idxEntryLen]byte
	prevRecord := int64(-1)
	for {
		n, err := io.ReadFull(br, raw[:])
		if err == io.EOF {
			return out, rep, nil
		}
		if err != nil {
			if !lenient {
				return nil, nil, fmt.Errorf("capture: index: entry %d: torn entry (%d of %d bytes)", len(out)+1, n, idxEntryLen)
			}
			rep.Skip(len(out)+1, "torn index entry")
			return out, rep, nil
		}
		e := IndexEntry{
			TsMs:   int64(binary.LittleEndian.Uint64(raw[0:])),
			Offset: int64(binary.LittleEndian.Uint64(raw[8:])),
			Record: int64(binary.LittleEndian.Uint32(raw[16:])),
		}
		// Entries are strictly record-ordered by construction; a
		// violation means the index bytes are rotten even though the
		// entry length worked out.
		if e.Record <= prevRecord || e.Offset < int64(len(segHeader)) {
			if !lenient {
				return nil, nil, fmt.Errorf("capture: index: entry %d: implausible entry (record %d, offset %d)", len(out)+1, e.Record, e.Offset)
			}
			rep.Skip(len(out)+1, "implausible index entry")
			return out, rep, nil
		}
		prevRecord = e.Record
		out = append(out, e)
		rep.Kept++
	}
}

// Locate returns the latest index entry whose timestamp is at or
// before tsMs — the frame boundary a time-seek starts reading from —
// or false when the index is empty or every entry is later.
func Locate(idx []IndexEntry, tsMs int64) (IndexEntry, bool) {
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := (lo + hi) / 2
		if idx[mid].TsMs <= tsMs {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return IndexEntry{}, false
	}
	return idx[lo-1], true
}

// ErrNoIndex reports a missing index file to callers that treat the
// index as advisory.
var ErrNoIndex = errors.New("capture: no index")

// LoadIndex reads a segment's index file, mapping a missing file to
// ErrNoIndex (the index is advisory; the segment alone is complete).
func LoadIndex(path string, lenient bool) ([]IndexEntry, *salvage.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, ErrNoIndex
		}
		return nil, nil, fmt.Errorf("capture: %w", err)
	}
	defer f.Close()
	return ReadIndex(f, lenient)
}
